package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/types"
)

func TestPercentileNearestRankAndSampleCount(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i) // reversed: Percentile sorts
	}
	p, err := Percentile(vals, 95)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 190 || p.N != 200 || p.Beyond != 10 {
		t.Fatalf("p95 of 1..200 = %+v, want value 190, n 200, 10 beyond", p)
	}
	if p, err := Percentile(vals, 50); err != nil || p.Value != 100 {
		t.Fatalf("p50 of 1..200 = %+v, %v", p, err)
	}
	// 199 samples leave only 9 beyond the p95 rank: refused.
	if _, err := Percentile(vals[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples accepted with 9 beyond it")
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("percentile of an empty sample accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{5, 1, 3, 2}); m != 2 {
		t.Fatalf("nearest-rank median of 1,2,3,5 = %v, want 2", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("median of nothing = %v", m)
	}
}

func rows(vals ...[]int64) []types.Row {
	var out []types.Row
	for _, v := range vals {
		var r types.Row
		for _, x := range v {
			r = append(r, types.NewInt(x))
		}
		out = append(out, r)
	}
	return out
}

func TestMultisetOracle(t *testing.T) {
	want := Multiset{intsKey(1, 2): 2, intsKey(3, 4): 1}
	if err := SameMultiset(rows([]int64{3, 4}, []int64{1, 2}, []int64{1, 2}), want); err != nil {
		t.Fatalf("same multiset in another order refused: %v", err)
	}
	for name, got := range map[string][]types.Row{
		"missing duplicate": rows([]int64{1, 2}, []int64{3, 4}),
		"extra row":         rows([]int64{1, 2}, []int64{1, 2}, []int64{3, 4}, []int64{5, 6}),
		"changed value":     rows([]int64{1, 2}, []int64{1, 2}, []int64{3, 5}),
	} {
		if err := SameMultiset(got, want); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := SameSequence(rows([]int64{1, 2}, []int64{3, 4}), []string{"1|2", "3|4"}); err != nil {
		t.Fatal(err)
	}
	if err := SameSequence(rows([]int64{3, 4}, []int64{1, 2}), []string{"1|2", "3|4"}); err == nil {
		t.Fatal("reordered sequence accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []Span{
		{ID: 1, Name: "driver.update", Start: us(0), End: us(100)},
		{ID: 2, Parent: 1, Name: "server.dispatch", Start: us(10), End: us(50)},
		{ID: 3, Parent: 1, Name: "server.dispatch", Start: us(40), End: us(70)}, // overlaps 2
		{ID: 4, Parent: 1, Name: "storage.vacuum", Start: us(90), End: us(130)}, // runs past its parent
		{ID: 5, Parent: 2, Name: "sqlx.parse", Start: us(20), End: us(25)},
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: us(30), 2: us(35), 3: us(30), 4: us(40), 5: us(5)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	by := SelfByLayer(spans)
	if by["driver"] != us(30) || by["server"] != us(65) || by["sqlx"] != us(5) || by["storage"] != us(40) {
		t.Fatalf("self by layer %v", by)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	ts := NewTraceSet()
	tr := ts.New()
	root := tr.Begin("driver.commit")
	child := tr.Begin("server.dispatch")
	tr.End(child)
	tr.Child(root, "plan.plan", time.Microsecond)
	tr.End(root)
	other := tr.Begin("driver.begin")
	tr.End(other)
	spans := ts.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[1].Parent != root || spans[1].Req != root || spans[2].Parent != root || spans[2].Req != root {
		t.Fatalf("children not linked to their root: %+v", spans)
	}
	if spans[3].Parent != 0 || spans[3].Req != other {
		t.Fatalf("second root linked to the first: %+v", spans[3])
	}
	var none *Tracer // untraced runs record nothing
	none.End(none.Begin("driver.begin"))
}

func TestReplaceKeepsSpansBeforeTheAbandonedOperation(t *testing.T) {
	ts := NewTraceSet()
	tr := ts.New()
	tr.End(tr.Begin("driver.begin"))
	done := tr.Done()
	tr.Begin("driver.select") // abandoned at its deadline, never ends
	fresh := ts.Replace(tr, done)
	fresh.End(fresh.Begin("driver.begin"))
	spans := ts.Spans()
	if len(spans) != 2 || spans[0].Name != "driver.begin" || spans[1].Name != "driver.begin" || spans[0].ID == spans[1].ID {
		t.Fatalf("spans after a replace: %+v", spans)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := newTxnGen(7, 0), newTxnGen(7, 0), newTxnGen(8, 0)
	same, differ := true, false
	for i := 0; i < 50; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && reflect.DeepEqual(x, y)
		differ = differ || !reflect.DeepEqual(x, z)
	}
	if !same || !differ {
		t.Fatalf("same seed same stream: %v; other seed differs: %v", same, differ)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.Name || s.Unit != m.Unit || s.Better != m.Better || s.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, s, m)
		}
	}
	pl := perLayer()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(pl))
	}
	for i, m := range pl {
		s := spec.PerLayer[i]
		if s.Name != m.Name || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, s, m)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}

func TestEndToEndFigures(t *testing.T) {
	// Class a: 1..100 ms; class b: 4x as long. 200 ops in 5 s.
	var ops []Op
	for i := 100; i >= 1; i-- { // reversed: percentiles sort
		d := time.Duration(i) * time.Millisecond
		ops = append(ops, Op{Lat: d, Class: "a"}, Op{Lat: 4 * d, Class: "b"})
	}
	r := &Run{Metrics: map[string]float64{}}
	if err := r.setEndToEnd(ops, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"op_p10_ms":     20,  // geometric mean of the class p10s 10 and 40 ms, equal shares
		"run.ops_per_s": 40,  // 200 ops in 5 s
		"run.op_p50_ms": 80,  // rank 100 of all 200: 1..79 and 4..76 lie below
		"run.op_p95_ms": 360, // rank 190 of all 200: the 11th largest, 4 x 90 ms
	}
	for name, w := range want {
		if got := r.Metrics[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	// Classes weigh by their share of the operations: class a twice over.
	for i := 1; i <= 100; i++ {
		ops = append(ops, Op{Lat: time.Duration(i) * time.Millisecond, Class: "a"})
	}
	if err := r.setEndToEnd(ops, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, w := r.Metrics["op_p10_ms"], math.Cbrt(10*10*40); math.Abs(got-w) > 1e-9 {
		t.Errorf("op_p10_ms = %v, want %v: class a's 10 ms weighs 2/3", got, w)
	}
	// A class too small for 10 samples beyond its p10 fails the run.
	if err := r.setEndToEnd(append(ops, Op{Lat: time.Millisecond, Class: "rare"}), time.Second); err == nil {
		t.Fatal("p10 of a one-op class accepted")
	}
}
