package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autonomous"
	"repro/internal/cluster"
	"repro/internal/core"
)

// housekeepEvery is how many commits pass between housekeeping rounds. The
// count comes from the workload, not a timer, so both commits of a
// comparison run the same rounds.
const housekeepEvery = 250

// housekeeper applies the autopilot's bloat and LCO rules, with the
// autopilot's own thresholds, every housekeepEvery commits: vacuum when a
// table's versions per visible row reach the bloat ratio, truncate LCOs
// when a data node's LCO passes the limit. The rest of the autopilot does
// not run (bucket spreading would move data mid-run).
type housekeeper struct {
	c          *cluster.Cluster
	bloatRatio float64
	lcoLimit   int
	commits    atomic.Int64

	mu                                     sync.Mutex
	versions, vacuumMS, reclaimed, truncUS Sample
	lcoMax                                 int
}

func newHousekeeper(db *core.DB) *housekeeper {
	ap := db.NewAutopilot(autonomous.SLA{})
	return &housekeeper{c: db.Cluster(), bloatRatio: ap.BloatRatio, lcoLimit: ap.LCOLimit}
}

// afterCommit counts one commit and runs a round on every housekeepEvery-th,
// recording storage.vacuum and txnkit.truncate spans on tr.
func (h *housekeeper) afterCommit(tr *Tracer) {
	if h.commits.Add(1)%housekeepEvery != 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	versions, visible, worst := 0, 0, 1.0
	for _, b := range h.c.BloatReport() {
		versions += b.Versions
		visible += b.Visible
		worst = max(worst, b.Ratio())
	}
	h.versions.Add(ratio(float64(versions), float64(visible)))
	if worst >= h.bloatRatio {
		sp := tr.Begin("storage.vacuum")
		start := time.Now()
		n := h.c.Vacuum()
		h.vacuumMS.AddDur(time.Since(start), time.Millisecond)
		tr.End(sp)
		h.reclaimed.Add(float64(n))
	}
	lco := 0
	for _, dn := range h.c.DataNodes() {
		lco = max(lco, dn.Txm.LCOLen())
	}
	h.lcoMax = max(h.lcoMax, lco)
	if lco > h.lcoLimit {
		sp := tr.Begin("txnkit.truncate")
		start := time.Now()
		h.c.TruncateLCOs()
		h.truncUS.AddDur(time.Since(start), time.Microsecond)
		tr.End(sp)
	}
}

func (h *housekeeper) report(r *Run) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r.setMedian("storage.versions_per_row", &h.versions)
	r.setMedian("storage.vacuum_ms", &h.vacuumMS)
	r.setMedian("storage.vacuum_reclaimed", &h.reclaimed)
	r.setMedian("txnkit.truncate_us", &h.truncUS)
	r.set("txnkit.lco_len_max", float64(h.lcoMax))
}
