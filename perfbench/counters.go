package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// counters is a snapshot of the cluster-wide counters a pass reports as
// deltas: fabric traffic per message kind and per data node, and GTM
// requests.
type counters struct {
	fab transport.Stats
	dn  []transport.DNStat
	gtm int64
}

func snapshot(c *cluster.Cluster) counters {
	return counters{fab: c.Fabric().Stats(), dn: c.Fabric().DNStats(), gtm: c.GTMStats().Total()}
}

// reportCounters sets the fabric and GTM per-layer metrics of a pass that
// completed ops operations.
func reportCounters(r *Run, before, after counters, ops int64) {
	d := after.fab.Sub(before.fab)
	n := float64(ops)
	for _, t := range transport.MsgTypes() {
		st := d.Get(t)
		if st.Count > 0 {
			r.note("fabric %-12s %8d msgs %12d B over %d ops", t, st.Count, st.Bytes, ops)
		}
		r.set("transport."+t.String()+".msgs_per_op", ratio(float64(st.Count), n))
		r.set("transport."+t.String()+".bytes_per_op", ratio(float64(st.Bytes), n))
	}
	client := d.Get(transport.ClientReq).Bytes + d.Get(transport.ClientResp).Bytes
	r.set("transport.client_bytes_per_txn", ratio(float64(client), n))
	r.set("gtm.requests_per_txn", ratio(float64(after.gtm-before.gtm), n))

	// Load spread over the data nodes: the busiest node's delivered
	// messages over the mean.
	var total, busiest int64
	nodes := 0
	for i, st := range after.dn {
		m := st.Msgs
		if i < len(before.dn) {
			m -= before.dn[i].Msgs
		}
		total += m
		busiest = max(busiest, m)
		nodes++
	}
	r.set("cluster.dn_load_max_over_mean", ratio(float64(busiest), float64(total)/float64(max(nodes, 1))))
}

// reportSelf sets each layer's self time per operation from a pass's spans.
func reportSelf(r *Run, spans []Span, ops int64) {
	by := SelfByLayer(spans)
	for _, l := range selfLayers {
		if d, ok := by[l]; ok {
			r.set("self."+l+".us_per_op", ratio(float64(d)/float64(time.Microsecond), float64(ops)))
		}
	}
}

// reportOverhead sets the tracing overhead from the mean operation latency
// of an untraced and a traced pass.
func reportOverhead(r *Run, untraced, traced float64) {
	r.set("trace.overhead_pct", 100*(ratio(traced, untraced)-1))
	r.note("trace.overhead_pct: mean op %.4g ms traced vs %.4g ms untraced", traced, untraced)
}
