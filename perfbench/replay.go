package main

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/sqlx"
)

// replayUnits is how many recorded operations the replay sends: enough for
// stable per-statement medians, few enough that a traced run stays well
// inside its time limit.
const replayUnits = 5000

// replay sends the first replayUnits recorded operations, in their original
// start order, through sqlx.Parse and Session.ExecStmt, one coordinator
// session per original client, with spans around each call. It splits the
// time the front door's single Dispatch span hides. It returns the spans and
// the number of transactions replayed.
func replay(r *Run, env *tpccEnv, units []unit) ([]Span, int64) {
	sort.SliceStable(units, func(i, j int) bool { return units[i].start < units[j].start })
	units = units[:min(len(units), replayUnits)]
	var txns int64
	ts := NewTraceSet()
	tr := ts.New()
	hk := newHousekeeper(env.db)
	sessions := map[int]*cluster.Session{}
	var commitSS, commitMS Sample
	cls := newClassStats()
	errs := 0
	for _, u := range units {
		if !u.analytic {
			txns++
		}
		s := sessions[u.client]
		if s == nil {
			s = env.db.Session()
			sessions[u.client] = s
		}
		for _, sql := range u.stmts {
			kind := verb(sql)
			if u.analytic {
				kind = "analytic"
			}
			res, d, err := tracedExec(tr, s, sql, kind)
			if err != nil {
				errs++
				if !u.analytic {
					_, _ = s.Exec("ROLLBACK")
				}
				break
			}
			switch {
			case u.analytic:
				cls.add("analytic", d, res)
			case verb(sql) == "commit" && s.LastTxnWasGlobal:
				commitMS.AddDur(d, time.Microsecond)
				hk.afterCommit(nil)
			case verb(sql) == "commit":
				commitSS.AddDur(d, time.Microsecond)
				hk.afterCommit(nil)
			}
		}
	}
	if errs > 0 {
		r.note("replay: %d operations stopped at an error (conflicts differ when replayed serially)", errs)
	}
	spans := ts.Spans()
	byName := DurationsByName(spans)
	for _, name := range []string{"cluster.update", "cluster.insert", "cluster.select", "sqlx.parse"} {
		if s := byName[name]; s != nil {
			r.setMedian(name+"_us_p50", s)
		}
	}
	r.setMedian("txn.commit_ss_us_p50", &commitSS)
	r.setMedian("txn.commit_ms_us_p50", &commitMS)
	cls.report(r)
	return spans, txns
}

// tracedExec parses and executes one statement on s under a bench.stmt span
// with sqlx.parse and cluster.<kind> (txn.commit for COMMIT) children, and a
// plan.plan child of the latter for planned statements. It returns the
// ExecStmt duration.
func tracedExec(tr *Tracer, s *cluster.Session, sql, kind string) (*cluster.Result, time.Duration, error) {
	root := tr.Begin("bench.stmt")
	defer tr.End(root)
	ps := tr.Begin("sqlx.parse")
	stmt, err := sqlx.Parse(sql)
	tr.End(ps)
	if err != nil {
		return nil, 0, err
	}
	name := "cluster." + kind
	if kind == "commit" {
		name = "txn.commit"
	}
	es := tr.Begin(name)
	res, err := s.ExecStmt(stmt)
	d := tr.End(es)
	if err != nil {
		return nil, d, err
	}
	if res.PlanTime > 0 {
		tr.Child(es, "plan.plan", res.PlanTime)
	}
	return res, d, nil
}

// classStats collects per-class plan time, execution time and rows shipped.
type classStats struct{ plan, exec, shipped map[string]*Sample }

func newClassStats() *classStats {
	return &classStats{plan: map[string]*Sample{}, exec: map[string]*Sample{}, shipped: map[string]*Sample{}}
}

func (c *classStats) add(class string, d time.Duration, res *cluster.Result) {
	for _, m := range []map[string]*Sample{c.plan, c.exec, c.shipped} {
		if m[class] == nil {
			m[class] = &Sample{}
		}
	}
	c.plan[class].AddDur(res.PlanTime, time.Microsecond)
	c.exec[class].AddDur(d-res.PlanTime, time.Millisecond)
	c.shipped[class].Add(float64(res.RowsShipped))
}

func (c *classStats) report(r *Run) {
	for class := range c.plan {
		r.setMedian("plan.plan_us_p50."+class, c.plan[class])
		r.setMedian("exec.exec_ms_p50."+class, c.exec[class])
		r.setMedian("exec.rows_shipped_per_query."+class, c.shipped[class])
	}
}
