package tpcc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

func newLoaded(t *testing.T, dns int, mode cluster.TxnMode, ss float64) (*cluster.Cluster, Config) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: dns, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4, ss)
	cfg.CustomersPerDistrict = 5
	cfg.Items = 20
	if err := Load(c, cfg); err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

func TestLoadCreatesData(t *testing.T) {
	c, cfg := newLoaded(t, 4, cluster.ModeGTMLite, 1.0)
	s := c.NewSession()
	res, err := s.Exec("SELECT count(*) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Warehouses * cfg.DistrictsPerWarehouse * cfg.CustomersPerDistrict)
	if res.Rows[0][0].Int() != want {
		t.Errorf("customers = %v, want %d", res.Rows[0][0], want)
	}
	if err := CheckInvariants(c, cfg); err != nil {
		t.Errorf("fresh load violates invariants: %v", err)
	}
}

func TestSingleShardWorkloadGTMLite(t *testing.T) {
	c, cfg := newLoaded(t, 4, cluster.ModeGTMLite, 1.0)
	before := c.GTMStats().Total()
	d := NewDriver(c, cfg, 0)
	if err := d.Run(100); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if d.Stats.MultiShard != 0 {
		t.Errorf("100%% SS workload produced %d multi-shard txns", d.Stats.MultiShard)
	}
	if got := c.GTMStats().Total() - before; got != 0 {
		t.Errorf("100%% SS under GTM-lite sent %d GTM requests, want 0", got)
	}
	if err := CheckInvariants(c, cfg); err != nil {
		t.Error(err)
	}
}

func TestMixedWorkloadUsesGTMProportionally(t *testing.T) {
	c, cfg := newLoaded(t, 4, cluster.ModeGTMLite, 0.9)
	d := NewDriver(c, cfg, 0)
	if err := d.Run(300); err != nil {
		t.Fatal(err)
	}
	total := d.Stats.SingleShard + d.Stats.MultiShard
	if total == 0 {
		t.Fatal("no commits")
	}
	msFrac := float64(d.Stats.MultiShard) / float64(total)
	if msFrac < 0.03 || msFrac > 0.25 {
		t.Errorf("multi-shard fraction = %.2f, want ≈ 0.10", msFrac)
	}
	// GTM requests should be proportional to multi-shard txns only
	// (2 requests each: begin + end).
	gtmReqs := c.GTMStats().Total()
	if gtmReqs < d.Stats.MultiShard || gtmReqs > 4*d.Stats.MultiShard+8 {
		t.Errorf("gtm requests = %d for %d multi-shard txns", gtmReqs, d.Stats.MultiShard)
	}
	if err := CheckInvariants(c, cfg); err != nil {
		t.Error(err)
	}
}

func TestBaselineModeInvariants(t *testing.T) {
	c, cfg := newLoaded(t, 2, cluster.ModeBaseline, 0.9)
	d := NewDriver(c, cfg, 0)
	if err := d.Run(150); err != nil {
		t.Fatal(err)
	}
	if c.GTMStats().Total() == 0 {
		t.Error("baseline must use the GTM")
	}
	if err := CheckInvariants(c, cfg); err != nil {
		t.Error(err)
	}
}

func TestConcurrentDriversConserveMoney(t *testing.T) {
	c, cfg := newLoaded(t, 4, cluster.ModeGTMLite, 0.8)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			d := NewDriver(c, cfg, int64(w))
			done <- d.Run(80)
		}(w)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckInvariants(c, cfg); err != nil {
		t.Error(err)
	}
}

func TestAbortsDoNotLeak(t *testing.T) {
	// High contention on one warehouse: aborts expected, invariants must
	// still hold.
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, 1.0)
	cfg.DistrictsPerWarehouse = 1
	cfg.CustomersPerDistrict = 2
	cfg.Items = 5
	if err := Load(c, cfg); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(w int) {
			d := NewDriver(c, cfg, int64(w))
			done <- d.Run(60)
		}(w)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckInvariants(c, cfg); err != nil {
		t.Error(err)
	}
}

// BenchmarkKeyBoundCustomerUpdate measures the Payment transaction's
// customer UPDATE, which binds the whole primary key (c_w_id, c_d_id,
// c_id), on a loaded 8-warehouse x 10-district x 100-customer database.
// Run with:
//
//	go test -run '^$' -bench KeyBoundCustomerUpdate -benchmem ./internal/tpcc
func BenchmarkKeyBoundCustomerUpdate(b *testing.B) {
	c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: cluster.ModeGTMLite})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(8, 0.9)
	cfg.DistrictsPerWarehouse, cfg.CustomersPerDistrict, cfg.Items = 10, 100, 200
	if err := Load(c, cfg); err != nil {
		b.Fatal(err)
	}
	stmts := make([]string, 997) // prime: successive iterations hit different keys
	for i := range stmts {
		stmts[i] = fmt.Sprintf("UPDATE customer SET c_balance = c_balance - 1, c_payments = c_payments + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
			i%cfg.Warehouses, i%cfg.DistrictsPerWarehouse, i%cfg.CustomersPerDistrict)
	}
	s := c.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if res.RowsAffected != 1 {
			b.Fatalf("updated %d rows, want 1", res.RowsAffected)
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N), "us/op")
}
