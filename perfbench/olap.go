package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/sqlx"
	"repro/internal/types"
)

const (
	// factRows is the fact table's size: 4 sealed 8192-row segments per DN.
	factRows = 131072
	// Query rounds (one query of each class) per nominal second of run,
	// sized like the TPC-C rates.
	olapRoundsPerSecond  = 6
	joinsRoundsPerSecond = 6
	insertBatch          = 1024
	// minRounds keeps at least 200 queries in a run, so that 10 lie beyond
	// the p95.
	minRounds = 50
	// joinDeadline bounds one join query: about 15x a healthy shuffle, so
	// a deadlocked one costs little run time.
	joinDeadline = 2 * time.Second
)

// fact is one generated fact row. k is the insertion-ordered distribution
// key; g (1000 groups) and p1 serve the analytic classes, d (256 values)
// joins the dimension.
type fact struct{ k, g, v, p1, d int64 }

func genFacts(seed int64) []fact {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fact, factRows)
	for i := range out {
		out[i] = fact{k: int64(i), g: rng.Int63n(1000), v: rng.Int63n(1_000_000), p1: rng.Int63n(100), d: rng.Int63n(256)}
	}
	return out
}

// inserts renders rows as multi-row INSERT statements of insertBatch rows.
func inserts(table string, n int, row func(i int) string) []string {
	var out []string
	for lo := 0; lo < n; lo += insertBatch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < min(lo+insertBatch, n); i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			sb.WriteString(row(i))
		}
		out = append(out, sb.String())
	}
	return out
}

func factInserts(table string, facts []fact) []string {
	return inserts(table, len(facts), func(i int) string {
		f := facts[i]
		return fmt.Sprintf("(%d, %d, %d, %d, %d)", f.k, f.g, f.v, f.p1, f.d)
	})
}

const factCols = "(k BIGINT, g BIGINT, v BIGINT, p1 BIGINT, d BIGINT) DISTRIBUTE BY HASH(k)"

type sqlEnv struct{ db *core.DB }

func (e *sqlEnv) Close() { e.db.Close() }

// setupSQL opens a 4-DN cluster and runs the load statements (generated
// before timing starts) in one transaction, then analyzes the tables.
func setupSQL(ddl, load, analyze []string) func() (*sqlEnv, error) {
	return func() (*sqlEnv, error) {
		db, err := core.Open(core.Options{DataNodes: 4})
		if err != nil {
			return nil, err
		}
		s := db.Session()
		stmts := append(append(append(append([]string{}, ddl...), "BEGIN"), load...), "COMMIT")
		for _, q := range stmts {
			if _, err := s.Exec(q); err != nil {
				db.Close()
				return nil, fmt.Errorf("%.60s: %w", q, err)
			}
		}
		for _, t := range analyze {
			if err := db.Analyze(t); err != nil {
				db.Close()
				return nil, err
			}
		}
		return &sqlEnv{db: db}, nil
	}
}

// query is one generated statement and the check of its answer, computed
// by the benchmark from its own generated rows.
type query struct {
	class, sql string
	check      func([]types.Row) error
}

// olapQueries generates rounds x the four olap classes.
func olapQueries(seed int64, facts []fact, rounds int) []query {
	rng := rand.New(rand.NewSource(seed + 101))
	agg := func(table string, p int64) query {
		type acc struct{ n, sum int64 }
		groups := map[int64]*acc{}
		for _, f := range facts {
			if f.p1 < p {
				if groups[f.g] == nil {
					groups[f.g] = &acc{}
				}
				groups[f.g].n++
				groups[f.g].sum += f.v
			}
		}
		want := Multiset{}
		for g, a := range groups {
			want[intsKey(g, a.n, a.sum)]++
		}
		class := "agg"
		if table == "factrow" {
			class = "rowagg"
		}
		return query{class, fmt.Sprintf("SELECT g, count(*), sum(v) FROM %s WHERE p1 < %d GROUP BY g", table, p),
			func(rows []types.Row) error { return SameMultiset(rows, want) }}
	}
	var out []query
	for i := 0; i < rounds; i++ {
		// topn: a selective filter (0.5-2.5 % of rows) + ORDER BY .. LIMIT,
		// with k breaking ties so the answer is one sequence.
		x := int64(1_000_000 - 5_000 - rng.Intn(20_000))
		var hits []fact
		for _, f := range facts {
			if f.v >= x {
				hits = append(hits, f)
			}
		}
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].v != hits[b].v {
				return hits[a].v > hits[b].v
			}
			return hits[a].k < hits[b].k
		})
		var top []string
		for _, f := range hits[:min(10, len(hits))] {
			top = append(top, intsKey(f.k, f.v))
		}
		out = append(out, query{"topn", fmt.Sprintf("SELECT k, v FROM fact WHERE v >= %d ORDER BY v DESC, k LIMIT 10", x),
			func(rows []types.Row) error { return SameSequence(rows, top) }})

		p := int64(20 + rng.Intn(60))
		out = append(out, agg("fact", p))

		// scan: a 2048-key range of the insertion-ordered key, which zone
		// maps can prune to about one segment per DN.
		lo := int64(rng.Intn(factRows - 2048))
		want := Multiset{}
		for _, f := range facts[lo : lo+2048] {
			want[intsKey(f.k, f.v)]++
		}
		out = append(out, query{"scan", fmt.Sprintf("SELECT k, v FROM fact WHERE k >= %d AND k < %d", lo, lo+2048),
			func(rows []types.Row) error { return SameMultiset(rows, want) }})

		out = append(out, agg("factrow", int64(20+rng.Intn(60))))
	}
	return out
}

// queryPass is one client running a query list on a coordinator session.
type queryPass struct {
	lat               Sample
	byClass           map[string]*Sample
	cls               *classStats
	busy              time.Duration
	ops               []Op // answered queries
	attempted, failed int64
	scan              colstore.ScanStats // fact-table deltas over traced scan queries
	scanQueries       int64
}

// runQueries runs qs back to back, each bounded by queryDeadline, and
// checks every answer. Traced passes split each query into sqlx.parse and
// cluster.select (with its plan.plan) spans; untraced ones call
// Session.Exec.
func runQueries(r *Run, env *sqlEnv, qs []query, deadline time.Duration, traces *TraceSet) *queryPass {
	p := &queryPass{byClass: map[string]*Sample{}, cls: newClassStats()}
	sess := env.db.Session()
	tr := traces.New()
	c := env.db.Cluster()
	errs := map[string]int{}
	for _, q := range qs {
		start := time.Now()
		var res *cluster.Result
		var d time.Duration
		s, t := sess, tr // the goroutine may outlive this iteration
		done := t.Done()
		var before colstore.ScanStats
		zoned := t != nil && q.class == "scan"
		if zoned {
			before, _ = c.TableScanStats("fact")
		}
		err := withDeadline(deadline, func() (err error) {
			if t == nil {
				res, err = s.Exec(q.sql)
				d = time.Since(start)
				return err
			}
			root := t.Begin("bench." + q.class)
			defer t.End(root)
			ps := t.Begin("sqlx.parse")
			stmt, err := sqlx.Parse(q.sql)
			t.End(ps)
			if err != nil {
				return err
			}
			es := t.Begin("cluster.select")
			res, err = s.ExecStmt(stmt)
			d = t.End(es)
			if err == nil {
				t.Child(es, "plan.plan", res.PlanTime)
			}
			return err
		})
		elapsed := time.Since(start)
		p.busy += elapsed
		p.attempted++
		if err != nil {
			p.failed++
			errs[fmt.Sprintf("%s: %v", q.class, err)]++
			if errors.Is(err, errDeadline) {
				// Continue on a fresh session and tracer.
				sess = env.db.Session()
				tr = traces.Replace(tr, done)
			}
			continue
		}
		p.lat.AddDur(elapsed, time.Millisecond)
		p.ops = append(p.ops, Op{Lat: elapsed, Class: q.class})
		if p.byClass[q.class] == nil {
			p.byClass[q.class] = &Sample{}
		}
		p.byClass[q.class].AddDur(elapsed, time.Millisecond)
		p.cls.add(q.class, d, res)
		if zoned {
			after, _ := c.TableScanStats("fact")
			p.scan.SegmentsScanned += after.SegmentsScanned - before.SegmentsScanned
			p.scan.SegmentsPruned += after.SegmentsPruned - before.SegmentsPruned
			p.scan.RowsScanned += after.RowsScanned - before.RowsScanned
			p.scanQueries++
		}
		if err := q.check(res.Rows); err != nil {
			r.wrong(fmt.Errorf("%s: %s: %w", q.class, q.sql, err))
		}
	}
	for msg, n := range errs {
		r.note("failed x%d: %s", n, msg)
	}
	return p
}

// count adds a measured pass's operations to the run's totals.
func (p *queryPass) count(r *Run) {
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// runQueryWorkload is the olap and joins workload: set up, warm up with one
// round, run the measured pass and, for a traced run, a traced pass on a
// fresh set-up.
func runQueryWorkload(r *Run, build func() (*sqlEnv, error), qs []query, perRound int, deadline time.Duration) error {
	env, err := setUp(r, build)
	if err != nil {
		return err
	}
	runQueries(r, env, qs[:perRound], deadline, nil) // warm-up, not reported
	p := runQueries(r, env, qs[perRound:], deadline, nil)
	p.count(r)
	env.Close()
	for class, s := range p.byClass {
		r.setMedian("q_"+class+"_ms", s)
	}
	// The span is the client's busy time, without answer checks.
	if err := r.setEndToEnd(p.ops, p.busy); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}

	env, err = build()
	if err != nil {
		return err
	}
	defer env.Close()
	runQueries(r, env, qs[:perRound], deadline, nil)
	traces := NewTraceSet()
	before := snapshot(env.db.Cluster())
	tp := runQueries(r, env, qs[perRound:], deadline, traces)
	after := snapshot(env.db.Cluster())
	tp.count(r)
	ops := tp.attempted - tp.failed
	reportCounters(r, before, after, ops)
	spans := traces.Spans()
	byName := DurationsByName(spans)
	for _, name := range []string{"sqlx.parse", "cluster.select"} {
		if s := byName[name]; s != nil {
			r.setMedian(name+"_us_p50", s)
		}
	}
	tp.cls.report(r)
	sc := tp.scan
	r.set("colstore.segments_pruned_ratio", ratio(float64(sc.SegmentsPruned), float64(sc.SegmentsPruned+sc.SegmentsScanned)))
	r.set("colstore.rows_scanned_per_query", ratio(float64(sc.RowsScanned), float64(tp.scanQueries)))
	reportSelf(r, spans, ops)
	reportOverhead(r, p.lat.Mean(), tp.lat.Mean())
	return WriteSpans(spanPath(r), spans)
}

// runOLAP is the olap workload: one Session client running a fixed mix of
// single-table scatter queries over a columnar fact table and its row-store
// copy.
func runOLAP(r *Run) error {
	facts := genFacts(r.Seed)
	ddl := []string{
		"CREATE TABLE fact " + factCols + " USING COLUMN",
		"CREATE TABLE factrow " + factCols,
	}
	load := append(factInserts("fact", facts), factInserts("factrow", facts)...)
	qs := olapQueries(r.Seed, facts, 1+max(minRounds, olapRoundsPerSecond*r.Seconds))
	return runQueryWorkload(r, setupSQL(ddl, load, nil), qs, len(olapClasses), queryDeadline)
}

// dims are the dimension tables of the joins workload: dim (256 rows) keyed
// by fact.d, and two small ones chained off it for the multiway join.
var dims = []struct {
	name      string
	rows, mod int64 // tag = id % mod, or id*10 when mod is 0
}{{"dim", 256, 64}, {"dim2", 64, 16}, {"dim3", 16, 0}}

func dimTag(mod, id int64) int64 {
	if mod == 0 {
		return id * 10
	}
	return id % mod
}

// joinQueries generates rounds x the four join classes over fact, fact2
// (same distribution key; w drawn from 4096 values) and the dimensions.
func joinQueries(seed int64, facts []fact, w []int64, rounds int) []query {
	rng := rand.New(rand.NewSource(seed + 202))
	byW := map[int64]int{}
	for _, x := range w {
		byW[x]++
	}
	var out []query
	for i := 0; i < rounds; i++ {
		x := int64(10_000 + rng.Intn(2_000)) // about 1.1 % of fact rows
		colo, bcast, shuf := Multiset{}, Multiset{}, Multiset{}
		var n, sumV, sumTag int64
		for _, f := range facts {
			if f.v >= x {
				continue
			}
			colo[intsKey(f.k, f.v, w[f.k])]++
			tag := dimTag(64, f.d)
			bcast[intsKey(f.v, tag)]++
			if c := byW[f.d]; c > 0 {
				shuf[intsKey(f.v, f.d)] += c
			}
			n++
			sumV += f.v
			sumTag += dimTag(0, dimTag(16, tag))
		}
		multi := Multiset{intsKey(n, sumV, sumTag): 1}
		check := func(m Multiset) func([]types.Row) error {
			return func(rows []types.Row) error { return SameMultiset(rows, m) }
		}
		out = append(out,
			query{"colocated", fmt.Sprintf("SELECT f.k, f.v, g.w FROM fact f, fact2 g WHERE f.k = g.k AND f.v < %d", x), check(colo)},
			query{"broadcast", fmt.Sprintf("SELECT f.v, d.tag FROM fact f, dim d WHERE f.d = d.id AND f.v < %d", x), check(bcast)},
			query{"shuffle", fmt.Sprintf("SELECT f.v, g.w FROM fact f, fact2 g WHERE f.d = g.w AND f.v < %d", x), check(shuf)},
			query{"multiway", fmt.Sprintf("SELECT count(*), sum(f.v), sum(c.tag) FROM dim3 c, fact2 g, dim d, fact f, dim2 b"+
				" WHERE f.k = g.k AND f.d = d.id AND d.tag = b.id AND b.tag = c.id AND f.v < %d", x), check(multi)},
		)
	}
	return out
}

// runJoins is the joins workload: the olap fact table, a second fact table
// sharing its distribution key, and dimension tables, one Session client.
func runJoins(r *Run) error {
	facts := genFacts(r.Seed)
	rng := rand.New(rand.NewSource(r.Seed + 303))
	w := make([]int64, factRows)
	for i := range w {
		w[i] = rng.Int63n(4096)
	}
	ddl := []string{
		"CREATE TABLE fact " + factCols + " USING COLUMN",
		"CREATE TABLE fact2 (k BIGINT, w BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN",
	}
	load := factInserts("fact", facts)
	load = append(load, inserts("fact2", factRows, func(i int) string { return fmt.Sprintf("(%d, %d)", i, w[i]) })...)
	analyze := []string{"fact", "fact2"}
	for _, d := range dims {
		ddl = append(ddl, fmt.Sprintf("CREATE TABLE %s (id BIGINT, tag BIGINT) DISTRIBUTE BY HASH(id)", d.name))
		load = append(load, inserts(d.name, int(d.rows), func(i int) string {
			return fmt.Sprintf("(%d, %d)", i, dimTag(d.mod, int64(i)))
		})...)
		analyze = append(analyze, d.name)
	}
	qs := joinQueries(r.Seed, facts, w, 1+max(minRounds, joinsRoundsPerSecond*r.Seconds))
	return runQueryWorkload(r, setupSQL(ddl, load, analyze), qs, len(joinClasses), joinDeadline)
}
