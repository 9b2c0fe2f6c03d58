package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be reported at all.
const minBeyond = 10

// Pct is one percentile of a sample: its value and the sample it came from.
type Pct struct {
	P      float64 // percentile, 0 < P < 100
	Value  float64
	N      int // sample count
	Beyond int // samples strictly after the percentile's rank
}

func (p Pct) String() string {
	return fmt.Sprintf("p%g of n=%d (%d beyond)", p.P, p.N, p.Beyond)
}

// Percentile returns the nearest-rank p-th percentile of vals (which it
// sorts in place). It fails unless at least minBeyond samples lie beyond
// the percentile's rank, so a tail figure always rests on enough samples.
func Percentile(vals []float64, p float64) (Pct, error) {
	n := len(vals)
	if n == 0 {
		return Pct{P: p}, fmt.Errorf("p%g of an empty sample", p)
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	out := Pct{P: p, Value: vals[rank-1], N: n, Beyond: n - rank}
	if out.Beyond < minBeyond {
		return out, fmt.Errorf("p%g of n=%d has only %d samples beyond it (need %d)", p, n, out.Beyond, minBeyond)
	}
	return out, nil
}

// Median is the nearest-rank median, or 0 for an empty sample. Unlike
// Percentile it does not demand samples beyond it: per-layer medians of
// rare events (a vacuum every few hundred commits) are still reported.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[(len(vals)+1)/2-1]
}

// Sample collects durations in one unit.
type Sample struct{ v []float64 }

func (s *Sample) AddDur(d time.Duration, unit time.Duration) {
	s.v = append(s.v, float64(d)/float64(unit))
}
func (s *Sample) Add(x float64) { s.v = append(s.v, x) }
func (s *Sample) Len() int      { return len(s.v) }
func (s *Sample) Mean() float64 { return ratio(s.Sum(), float64(len(s.v))) }
func (s *Sample) Median() float64 {
	return Median(append([]float64(nil), s.v...))
}
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}
func (s *Sample) Percentile(p float64) (Pct, error) {
	return Percentile(append([]float64(nil), s.v...), p)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Op is one completed operation of a measured pass.
type Op struct {
	Lat   time.Duration
	Class string // the operation's shape: a transaction kind or a query class
}

// serviceP is the per-class latency percentile op_p10_ms is made of.
const serviceP = 10

// setEndToEnd sets the end-to-end figures of a measured pass that completed
// ops in span.
//
// op_p10_ms, the bounded one, is the geometric mean over the operations of
// their class's 10th-percentile latency (each class weighted by its share
// of the operations): what an operation of the mix costs when neither the
// host nor other clients delay it. It moves with any change to the work an
// operation does. The host's speed drifts: on a 2-vCPU VM a fixed CPU loop
// runs 30-40 % slower for stretches of 10-30 s, with CPU time equal to wall
// time. Over ten oltp runs in a row the median, p95 and rate spread 16-25 %
// (quartile distance over median) and the class p10s 9 %; a fixed loop's
// median spread 23 % and its p10 8.5 %. Rare classes weigh little because
// their p10 switches between modes from run to run (multi-shard TPC-C
// transactions: 2x).
//
// run.ops_per_s, run.op_p50_ms and run.op_p95_ms, over all operations, are
// what a user sees; they are reported unbounded beside the per-layer
// figures.
func (r *Run) setEndToEnd(ops []Op, span time.Duration) error {
	var all Sample
	byClass := map[string]*Sample{}
	for _, op := range ops {
		all.AddDur(op.Lat, time.Millisecond)
		if byClass[op.Class] == nil {
			byClass[op.Class] = &Sample{}
		}
		byClass[op.Class].AddDur(op.Lat, time.Millisecond)
	}
	logs := 0.0
	for class, s := range byClass {
		p, err := s.Percentile(serviceP)
		if err != nil {
			return fmt.Errorf("op_p10_ms: class %q: %w", class, err)
		}
		logs += float64(p.N) * math.Log(p.Value)
		r.note("op_p10_ms: class %s %.4g ms from %s", class, p.Value, p)
	}
	r.set("op_p10_ms", math.Exp(logs/float64(len(ops))))
	r.set("run.ops_per_s", ratio(float64(len(ops)), span.Seconds()))
	r.note("run.ops_per_s = %.4g: %d ops in %v", r.Metrics["run.ops_per_s"], len(ops), span.Round(time.Millisecond))
	r.setMedian("run.op_p50_ms", &all)
	return r.setPct("run.op_p95_ms", &all, 95)
}
