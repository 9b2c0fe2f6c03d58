package main

import (
	"fmt"
	"io"
)

// Metric is one reported figure. End-to-end metrics (Bound > 0) are
// printed by untraced runs and every workload reports all of them; per-layer
// metrics are printed by traced runs, as 0 where a layer is not exercised.
type Metric struct {
	Name, Unit, Better string
	Bound              float64 // allowed worsening, as a share of the parent's median
	Doc                string  // what it measures, and what it should move where
}

// Classes are the statement classes timed one by one.
var (
	olapClasses  = []string{"topn", "agg", "scan", "rowagg"}
	joinClasses  = []string{"colocated", "broadcast", "shuffle", "multiway"}
	queryClasses = append(append(append([]string{}, olapClasses...), joinClasses...), "analytic")
)

// msgKinds are the fabric message kinds a workload here sends (snapshot_req
// only exists in baseline mode; replication and rebalancing never run).
var msgKinds = []string{
	"gtm_round", "scan_frag", "write", "prepare", "commit", "abort",
	"client_req", "client_resp", "shuffle_part", "bcast_build",
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"driver", "server", "sqlx", "cluster", "plan", "txn", "storage", "txnkit"}

var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, "median of 3 set-ups: open a 4-DN cluster and load it through the engine's own loaders"},
	{"op_p10_ms", "ms", "lower", 0.25, "geometric mean over the operations of their class's p10 latency (classes: txn kind x single/multi-shard; query class; htap: both): an operation's cost when neither the host nor other clients delay it"},
}

func perLayer() []Metric {
	m := []Metric{
		{"run.ops_per_s", "1/s", "higher", 0, "completed operations per second of the untraced pass: committed txns (oltp), TPC-C txns and analytic queries (htap), queries (olap); unbounded, the host's drift moves it 20-45 %"},
		{"run.op_p50_ms", "ms", "lower", 0, "median latency of the same operations (unbounded)"},
		{"run.op_p95_ms", "ms", "lower", 0, "p95 latency of the same operations (unbounded); the run fails if fewer than 10 lie beyond it"},
		{"server.dispatch_us_p50", "us", "lower", 0, "time inside server.Dispatch per statement; moves op_p10_ms on oltp, not olap"},
		{"driver.overhead_us_p50", "us", "lower", 0, "driver call minus its dispatch; moves op_p10_ms on oltp"},
		{"server.stmt_cache_hit_ratio", "ratio", "higher", 0, "server prepared-statement cache hits / lookups; moves op_p10_ms on oltp"},
		{"transport.client_bytes_per_txn", "B", "lower", 0, "client_req+client_resp bytes per operation; moves op_p10_ms on oltp"},
		{"sqlx.parse_us_p50", "us", "lower", 0, "sqlx.Parse per statement (replayed stream); moves op_p10_ms on oltp"},
		{"cluster.update_us_p50", "us", "lower", 0, "Session.ExecStmt of an UPDATE (replayed stream); moves run.ops_per_s on oltp"},
		{"cluster.insert_us_p50", "us", "lower", 0, "Session.ExecStmt of an INSERT (replayed stream); moves run.ops_per_s on oltp"},
		{"cluster.select_us_p50", "us", "lower", 0, "Session.ExecStmt of a SELECT; moves run.ops_per_s on oltp"},
		{"cluster.dn_load_max_over_mean", "ratio", "lower", 0, "busiest DN's fabric messages over the mean (DNStats); moves run.ops_per_s on oltp"},
		{"txn.commit_ss_us_p50", "us", "lower", 0, "COMMIT of a single-shard (GTM-free) txn (replayed stream); moves op_p10_ms on oltp, htap"},
		{"txn.commit_ms_us_p50", "us", "lower", 0, "COMMIT of a multi-shard (GTM, 2PC) txn (replayed stream); moves op_p10_ms on oltp, htap"},
		{"gtm.requests_per_txn", "count", "lower", 0, "GTM requests per committed txn; moves op_p10_ms on oltp, htap"},
		{"txn.commit_ratio", "ratio", "higher", 0, "committed / attempted txns"},
		{"txnkit.lco_len_max", "count", "lower", 0, "longest DN LCO seen at a housekeeping round; moves op_p10_ms on oltp"},
		{"txnkit.truncate_us", "us", "lower", 0, "median Cluster.TruncateLCOs time (0 if the LCO rule never fired)"},
		{"storage.versions_per_row", "ratio", "lower", 0, "row versions per visible row (BloatReport before each vacuum); moves run.ops_per_s on oltp"},
		{"storage.vacuum_ms", "ms", "lower", 0, "median Cluster.Vacuum time; moves run.ops_per_s on oltp"},
		{"storage.vacuum_reclaimed", "count", "higher", 0, "median versions reclaimed per vacuum"},
	}
	for _, k := range msgKinds {
		m = append(m,
			Metric{"transport." + k + ".msgs_per_op", "count", "lower", 0, k + " messages per operation; moves op_p10_ms on oltp, the q_*_ms of olap and joins"},
			Metric{"transport." + k + ".bytes_per_op", "B", "lower", 0, k + " payload bytes per operation"})
	}
	for _, c := range queryClasses {
		m = append(m,
			Metric{"plan.plan_us_p50." + c, "us", "lower", 0, "Result.PlanTime of " + c + " queries; moves q_" + c + "_ms"},
			Metric{"exec.exec_ms_p50." + c, "ms", "lower", 0, "statement time minus plan time of " + c + " queries; moves q_" + c + "_ms"},
			Metric{"exec.rows_shipped_per_query." + c, "count", "lower", 0, "Result.RowsShipped of " + c + " queries"})
	}
	for _, c := range append(append([]string{}, olapClasses...), joinClasses...) {
		m = append(m, Metric{"q_" + c + "_ms", "ms", "lower", 0, "median untraced latency of " + c + " queries"})
	}
	m = append(m,
		Metric{"colstore.segments_pruned_ratio", "ratio", "higher", 0, "sealed fact segments skipped by zone maps / considered, over scan queries (TableScanStats); moves q_scan_ms on olap"},
		Metric{"colstore.rows_scanned_per_query", "count", "lower", 0, "fact-table columnar rows read per scan query; moves q_scan_ms on olap"},
		Metric{"htap.max_lag_records", "count", "lower", 0, "largest replica apply lag seen; moves run.op_p95_ms on htap"},
		Metric{"htap.offloaded_ratio", "ratio", "higher", 0, "analytic queries served by columnar replicas / analytic queries"},
		Metric{"htap.records_applied_per_s", "1/s", "higher", 0, "commit records applied to replicas per second"},
		Metric{"htap.gate_blocks", "count", "lower", 0, "analytic queries that waited for the freshness gate; moves run.op_p95_ms on htap"},
		Metric{"htap.query_per_s", "1/s", "higher", 0, "analytic queries per second beside the TPC-C client"},
		Metric{"htap.query_p50_ms", "ms", "lower", 0, "median analytic query latency"},
		Metric{"htap.query_p95_ms", "ms", "lower", 0, "p95 analytic query latency"},
	)
	for _, l := range selfLayers {
		m = append(m, Metric{"self." + l + ".us_per_op", "us", "lower", 0, "self time of " + l + " spans per operation"})
	}
	m = append(m, Metric{"trace.overhead_pct", "%", "lower", 0, "traced minus untraced mean operation latency, over untraced"})
	return m
}

// printCatalog lists every metric by name with its unit.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "# end-to-end metrics (--trace 0): name unit better bound — meaning")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-40s %-6s %-6s %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "# per-layer metrics (--trace 1): name unit better — meaning")
	for _, m := range perLayer() {
		fmt.Fprintf(w, "%-40s %-6s %-6s  %s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
}
