package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/htap"
	"repro/internal/server"
	"repro/internal/tpcc"
)

const (
	// oltpClients closed-loop TPC-C clients: the benchmark is sized for 2 vCPUs.
	oltpClients = 2
	// Transactions per client per nominal second of run: a run is a fixed
	// number of operations, so table growth is the same on both commits.
	// The rates are what a 2-vCPU host sustains in its slow phases, so a
	// run seldom takes much longer than --seconds.
	oltpTxnsPerSecond = 220
	htapTxnsPerSecond = 400
	txnDeadline       = 10 * time.Second
	queryDeadline     = 10 * time.Second
	// analyticThink is the htap analytic client's pause between queries.
	analyticThink = 2 * time.Millisecond
	// htapMaxLag is the replicas' freshness bound in records.
	htapMaxLag = 1024
)

// analyticQueries are E19's four analytic queries over the TPC-C tables.
var analyticQueries = []string{
	"SELECT count(*), sum(s_qty) FROM stock",
	"SELECT o_w_id, count(*), sum(o_lines) FROM orders GROUP BY o_w_id ORDER BY o_w_id",
	"SELECT sum(c_balance), sum(c_payments), count(*) FROM customer",
	"SELECT d_w_id, sum(d_ytd) FROM district GROUP BY d_w_id ORDER BY d_w_id",
}

// tpccConfig is the TPC-C MS mix: 8 warehouses x 10 districts x 100
// customers, 200 items, 90 % single-shard, 50/50 NewOrder/Payment.
func tpccConfig() tpcc.Config {
	cfg := tpcc.DefaultConfig(8, 0.9)
	cfg.DistrictsPerWarehouse, cfg.CustomersPerDistrict, cfg.Items = 10, 100, 200
	cfg.NewOrderWeight = 0.5
	return cfg
}

type tpccEnv struct {
	db  *core.DB
	srv *server.Server
	hm  *htap.Manager
}

func (e *tpccEnv) Close() { e.db.Close() }

// setupTPCC opens a 4-DN cluster (fabric latency model off), loads TPC-C
// with tpcc.Load and attaches the front door, plus columnar replicas for
// htap.
func setupTPCC(withHTAP bool) (*tpccEnv, error) {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		return nil, err
	}
	env := &tpccEnv{db: db}
	if err := tpcc.Load(db.Cluster(), tpccConfig()); err != nil {
		db.Close()
		return nil, err
	}
	if env.srv, err = db.NewServer(server.Config{}); err != nil {
		db.Close()
		return nil, err
	}
	if withHTAP {
		if env.hm, err = db.EnableHTAP(htap.Config{MaxLagRecords: htapMaxLag}); err != nil {
			db.Close()
			return nil, err
		}
	}
	return env, nil
}

// txnSpec is one generated transaction, in the shapes of tpcc.Driver.
type txnSpec struct {
	newOrder, multi                  bool
	home, remote, dist, cust, amount int
	oid                              int64
	items                            []int
}

// txnGen draws transactions from the seed, one stream per client.
type txnGen struct {
	cfg    tpcc.Config
	rng    *rand.Rand
	client int64
	seq    int64
}

func newTxnGen(seed int64, client int) *txnGen {
	return &txnGen{cfg: tpccConfig(), rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), client: int64(client)}
}

func (g *txnGen) next() txnSpec {
	c, rng := g.cfg, g.rng
	t := txnSpec{home: rng.Intn(c.Warehouses)}
	t.remote = t.home
	if c.Warehouses > 1 && rng.Float64() >= c.SingleShardFraction {
		t.remote = (t.home + 1 + rng.Intn(c.Warehouses-1)) % c.Warehouses
		t.multi = true
	}
	t.dist, t.cust = rng.Intn(c.DistrictsPerWarehouse), rng.Intn(c.CustomersPerDistrict)
	if rng.Float64() < c.NewOrderWeight {
		t.newOrder = true
		g.seq++
		t.oid = (g.client+1)*1_000_000_000 + g.seq
		for l := 1 + rng.Intn(3); l > 0; l-- {
			t.items = append(t.items, rng.Intn(c.Items))
		}
	} else {
		t.amount = 1 + rng.Intn(5)
	}
	return t
}

// class is the transaction's kind and whether it spans warehouses.
func (t txnSpec) class() string {
	kind := "payment"
	if t.newOrder {
		kind = "neworder"
	}
	if t.multi {
		return kind + "-ms"
	}
	return kind + "-ss"
}

// stmts are the statements between BEGIN and COMMIT.
func (t txnSpec) stmts() []string {
	if !t.newOrder {
		// Payment: the customer may belong to a remote warehouse.
		return []string{
			fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %d WHERE w_id = %d", t.amount, t.home),
			fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %d WHERE d_w_id = %d AND d_id = %d", t.amount, t.home, t.dist),
			fmt.Sprintf("UPDATE customer SET c_balance = c_balance - %d, c_payments = c_payments + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
				t.amount, t.remote, t.dist, t.cust),
		}
	}
	// NewOrder: the first line's stock may live in a remote warehouse.
	out := []string{
		fmt.Sprintf("SELECT d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", t.home, t.dist),
		fmt.Sprintf("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = %d AND d_id = %d", t.home, t.dist),
		fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d, %d)", t.home, t.dist, t.oid, t.cust, len(t.items)),
	}
	for l, item := range t.items {
		stockW := t.home
		if l == 0 {
			stockW = t.remote
		}
		out = append(out,
			fmt.Sprintf("INSERT INTO order_line VALUES (%d, %d, %d, %d, 1)", t.home, t.dist, t.oid, item),
			fmt.Sprintf("UPDATE stock SET s_qty = s_qty - 1 WHERE s_w_id = %d AND s_i_id = %d", stockW, item))
	}
	return out
}

// ledger is what committed transactions must have left in the tables.
type ledger struct{ payments, newOrders, lines int64 }

func (l *ledger) add(t txnSpec) {
	if t.newOrder {
		l.newOrders++
		l.lines += int64(len(t.items))
	} else {
		l.payments += int64(t.amount)
	}
}

type txnStatus int

const (
	committed txnStatus = iota
	aborted             // a write conflict: the expected TPC-C abort
	failed              // any other error, or a missed deadline
)

// txnResult is one transaction's outcome and the statements it sent.
type txnResult struct {
	status  txnStatus
	unknown bool // may or may not have committed
	err     error
	wrong   error
	stmts   []string
}

func isConflict(err error) bool { return strings.Contains(err.Error(), "conflict") }

// runTxn runs t as BEGIN..COMMIT on a pinned driver.Tx.
func (c *Client) runTxn(t txnSpec) (res txnResult) {
	res.stmts = append(res.stmts, "BEGIN")
	tx, err := c.begin()
	if err != nil {
		res.status, res.err = failed, err
		return res
	}
	abort := func(err error) txnResult {
		res.stmts = append(res.stmts, "ROLLBACK")
		c.rollback(tx)
		res.status, res.err = failed, err
		if isConflict(err) {
			res.status = aborted
		}
		return res
	}
	for _, sql := range t.stmts() {
		res.stmts = append(res.stmts, sql)
		r, err := c.exec(tx, sql)
		if err != nil {
			return abort(err)
		}
		if verb(sql) == "select" && len(r.Rows) != 1 {
			res.wrong = fmt.Errorf("oltp: %q returned %d rows, want 1", sql, len(r.Rows))
			return abort(res.wrong)
		}
	}
	res.stmts = append(res.stmts, "COMMIT")
	if err := c.commit(tx); err != nil {
		res.status, res.err = aborted, err
		if !isConflict(err) {
			res.status, res.unknown = failed, true
		}
		return res
	}
	res.status = committed
	return res
}

// unit is one recorded operation for the replay pass.
type unit struct {
	client   int
	start    time.Duration
	stmts    []string
	analytic bool
}

// tpccPass is one measured pass of oltp or htap on a freshly set-up env.
type tpccPass struct {
	r      *Run
	env    *tpccEnv
	traces *TraceSet // nil: untraced
	hk     *housekeeper

	mu                              sync.Mutex
	txnLat, queryLat                Sample
	ops                             []Op // committed txns and answered analytic queries
	committed, aborted, failedTxns  int64
	unknown, queries, failedQueries int64
	errs                            map[string]int
	led                             ledger
	units                           []unit
	lagMax                          int64
	start                           time.Time
	elapsed                         time.Duration
}

func newTPCCPass(r *Run, env *tpccEnv, traces *TraceSet) *tpccPass {
	return &tpccPass{r: r, env: env, traces: traces, hk: newHousekeeper(env.db), errs: map[string]int{}}
}

// countErr tallies a failed operation's error for the run's notes.
func (p *tpccPass) countErr(err error) {
	msg := err.Error()
	if len(msg) > 80 {
		msg = msg[:80]
	}
	p.mu.Lock()
	p.errs[msg]++
	p.mu.Unlock()
}

// tpccClient runs n generated transactions back to back.
func (p *tpccPass) tpccClient(id, n int) error {
	gen := newTxnGen(p.r.Seed, id)
	tr := p.traces.New()
	cl, err := openClient(p.env.srv, tr)
	if err != nil {
		return err
	}
	var lat Sample
	var ops []Op
	var led ledger
	var units []unit
	var ok, ab, fl, unk int64
	for i := 0; i < n; i++ {
		t := gen.next()
		start := time.Now()
		var res txnResult
		c, spans := cl, tr.Done() // the goroutine may outlive this iteration
		err := withDeadline(txnDeadline, func() error { res = c.runTxn(t); return nil })
		d := time.Since(start)
		if err != nil {
			// Missed deadline: the outcome is unknown and the client goes
			// on with a fresh connection and tracer.
			fl++
			unk++
			p.countErr(err)
			tr = p.traces.Replace(tr, spans)
			if cl, err = openClient(p.env.srv, tr); err != nil {
				return err
			}
			continue
		}
		if p.traces != nil {
			units = append(units, unit{client: id, start: start.Sub(p.traces.epoch), stmts: res.stmts})
		}
		p.r.wrong(res.wrong)
		switch res.status {
		case committed:
			ok++
			lat.AddDur(d, time.Millisecond)
			ops = append(ops, Op{Lat: d, Class: t.class()})
			led.add(t)
			p.hk.afterCommit(tr)
		case aborted:
			ab++
		default:
			fl++
			if res.unknown {
				unk++
			}
			p.countErr(res.err)
		}
	}
	cl.DB.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.txnLat.v = append(p.txnLat.v, lat.v...)
	p.ops = append(p.ops, ops...)
	p.committed += ok
	p.aborted += ab
	p.failedTxns += fl
	p.unknown += unk
	p.led.payments += led.payments
	p.led.newOrders += led.newOrders
	p.led.lines += led.lines
	p.units = append(p.units, units...)
	return nil
}

// analyticClient runs the analytic queries in turn until done is set.
func (p *tpccPass) analyticClient(id int, done *atomic.Bool) error {
	tr := p.traces.New()
	cl, err := openClient(p.env.srv, tr)
	if err != nil {
		return err
	}
	var lat Sample
	var ops []Op
	var units []unit
	var n, fl, lagMax int64
	for i := 0; !done.Load(); i++ {
		if i > 0 {
			time.Sleep(analyticThink)
		}
		qi := i % len(analyticQueries)
		q := analyticQueries[qi]
		start := time.Now()
		c, spans := cl, tr.Done() // the goroutine may outlive this iteration
		err := withDeadline(queryDeadline, func() error {
			_, err := c.query(q)
			return err
		})
		d := time.Since(start)
		n++
		if errors.Is(err, errDeadline) {
			tr = p.traces.Replace(tr, spans)
			if cl, err = openClient(p.env.srv, tr); err != nil {
				return err
			}
			err = errDeadline
		}
		if err != nil {
			fl++
			p.countErr(err)
			continue
		}
		lat.AddDur(d, time.Millisecond)
		ops = append(ops, Op{Lat: d, Class: fmt.Sprintf("analytic%d", qi)})
		if p.traces != nil {
			units = append(units, unit{client: id, start: start.Sub(p.traces.epoch), stmts: []string{q}, analytic: true})
			lagMax = max(lagMax, p.env.hm.Status().MaxLagRecords)
		}
	}
	cl.DB.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queryLat.v = append(p.queryLat.v, lat.v...)
	p.ops = append(p.ops, ops...)
	p.queries += n
	p.failedQueries += fl
	p.units = append(p.units, units...)
	p.lagMax = max(p.lagMax, lagMax)
	return nil
}

// run drives the pass: oltpClients TPC-C clients, or for htap one TPC-C
// client beside one analytic client that stops when the TPC-C client does.
func (p *tpccPass) run() error {
	withHTAP := p.env.hm != nil
	clients, perClient := oltpClients, oltpTxnsPerSecond*p.r.Seconds
	if withHTAP {
		clients, perClient = 1, htapTxnsPerSecond*p.r.Seconds
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients+1)
	var done atomic.Bool
	p.start = time.Now()
	if withHTAP {
		wg.Add(1)
		go func() { defer wg.Done(); errc <- p.analyticClient(clients, &done) }()
	}
	var tw sync.WaitGroup
	for i := 0; i < clients; i++ {
		tw.Add(1)
		go func(id int) { defer tw.Done(); errc <- p.tpccClient(id, perClient) }(i)
	}
	tw.Wait()
	p.elapsed = time.Since(p.start)
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	p.r.Attempted += p.committed + p.aborted + p.failedTxns + p.queries
	p.r.Failed += p.failedTxns + p.failedQueries
	for msg, n := range p.errs {
		p.r.note("error x%d: %s", n, msg)
	}
	return nil
}

// verify checks the tables against the TPC-C invariants and the ledger of
// committed transactions, and for htap the replicas against the primaries.
func (p *tpccPass) verify() error {
	c := p.env.db.Cluster()
	if p.env.hm != nil {
		if err := p.env.hm.WaitCaughtUp(30 * time.Second); err != nil {
			return fmt.Errorf("htap: replicas did not catch up: %w", err)
		}
	}
	p.r.wrong(tpcc.CheckInvariants(c, tpccConfig()))
	if p.unknown > 0 {
		p.r.note("ledger check skipped: %d transactions with unknown outcome", p.unknown)
	} else {
		cfg := tpccConfig()
		s := p.env.db.Session()
		for _, chk := range []struct {
			sql  string
			want int64
		}{
			{"SELECT sum(w_ytd) FROM warehouse", p.led.payments},
			{"SELECT count(*) FROM orders", p.led.newOrders},
			{"SELECT count(*) FROM order_line", p.led.lines},
			{"SELECT sum(s_qty) FROM stock", int64(cfg.Warehouses*cfg.Items*1000) - p.led.lines},
		} {
			res, err := s.Exec(chk.sql)
			if err != nil {
				return err
			}
			p.r.wrong(SameMultiset(res.Rows, Multiset{intsKey(chk.want): 1}))
		}
	}
	if p.env.hm == nil {
		return nil
	}
	s := p.env.db.Session()
	for _, q := range analyticQueries {
		c.DisableHTAPReads = true
		want, err := s.Exec(q)
		c.DisableHTAPReads = false
		if err != nil {
			return err
		}
		got, err := s.Exec(q)
		if err != nil {
			return err
		}
		if err := SameMultiset(got.Rows, MultisetOf(want.Rows)); err != nil {
			p.r.wrong(fmt.Errorf("htap: replica answer to %q differs from the primary: %w", q, err))
		}
	}
	return nil
}

// runTPCC is the oltp and htap workload.
func runTPCC(r *Run, withHTAP bool) error {
	build := func() (*tpccEnv, error) { return setupTPCC(withHTAP) }
	env, err := setUp(r, build)
	if err != nil {
		return err
	}
	p := newTPCCPass(r, env, nil)
	if err := p.run(); err != nil {
		return err
	}
	if err := p.verify(); err != nil {
		return err
	}
	env.Close()
	if err := r.setEndToEnd(p.ops, p.elapsed); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}

	// Traced pass on a fresh set-up: spans at the driver call and
	// server.Dispatch, counters around the pass.
	env, err = build()
	if err != nil {
		return err
	}
	tp := newTPCCPass(r, env, NewTraceSet())
	before := snapshot(env.db.Cluster())
	srvBefore := env.srv.Stats()
	var hsBefore htap.Status
	if withHTAP {
		hsBefore = env.hm.Status()
	}
	if err := tp.run(); err != nil {
		return err
	}
	after := snapshot(env.db.Cluster())
	srvAfter := env.srv.Stats()
	if withHTAP {
		hs := env.hm.Status()
		r.set("htap.max_lag_records", float64(tp.lagMax))
		r.set("htap.offloaded_ratio", ratio(float64(hs.QueriesOffloaded-hsBefore.QueriesOffloaded), float64(tp.queries)))
		r.set("htap.records_applied_per_s", float64(hs.RecordsApplied-hsBefore.RecordsApplied)/tp.elapsed.Seconds())
		r.set("htap.gate_blocks", float64(hs.GateBlocks-hsBefore.GateBlocks))
	}
	if err := tp.verify(); err != nil {
		return err
	}
	spans := tp.traces.Spans()
	reportCounters(r, before, after, tp.committed)
	hits, misses := srvAfter.CacheHits-srvBefore.CacheHits, srvAfter.CacheMisses-srvBefore.CacheMisses
	r.set("server.stmt_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("txn.commit_ratio", ratio(float64(tp.committed), float64(tp.committed+tp.aborted+tp.failedTxns)))
	tp.hk.report(r)
	var dispatch, overhead Sample
	self := SelfTimes(spans)
	for _, s := range spans {
		switch Layer(s.Name) {
		case "server":
			dispatch.AddDur(s.End-s.Start, time.Microsecond)
		case "driver":
			overhead.AddDur(self[s.ID], time.Microsecond)
		}
	}
	r.setMedian("server.dispatch_us_p50", &dispatch)
	r.setMedian("driver.overhead_us_p50", &overhead)
	if withHTAP {
		r.set("htap.query_per_s", float64(tp.queries-tp.failedQueries)/tp.elapsed.Seconds())
		r.setMedian("htap.query_p50_ms", &tp.queryLat)
		if err := r.setPct("htap.query_p95_ms", &tp.queryLat, 95); err != nil {
			return err
		}
	}
	reportSelf(r, spans, tp.committed)
	reportOverhead(r, p.txnLat.Mean(), tp.txnLat.Mean())
	env.Close()

	// Replay the traced pass's statement stream below the server.
	env, err = build()
	if err != nil {
		return err
	}
	defer env.Close()
	rspans, txns := replay(r, env, tp.units)
	reportSelf(r, rspans, txns)
	return WriteSpans(spanPath(r), append(spans, rspans...))
}

func spanPath(r *Run) string {
	return fmt.Sprintf("%s/%s-seed%d.csv", r.SpansDir, r.Workload, r.Seed)
}
