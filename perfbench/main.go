// Command perfbench is the repository's benchmark: it drives an embedded
// 4-DN cluster from outside, through the entry points users call (the
// front-door driver over the in-process fabric, or a coordinator Session),
// checks every answer, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --list
//
// Workloads: oltp, olap and htap are the benchmark (BENCHMARK.json). joins
// runs the same way but is kept out of BENCHMARK.json: its shuffle join can
// deadlock when the parallel degree is below the number of data nodes, so
// its runs miss deadlines and cannot be steady.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Run carries one invocation's settings and collects its results.
type Run struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	SpansDir string

	Attempted, Failed int64
	Metrics           map[string]float64

	mu    sync.Mutex
	Notes []string
	Wrong []error // output mismatches
}

func (r *Run) set(name string, v float64) { r.Metrics[name] = v }

func (r *Run) note(format string, args ...any) {
	r.mu.Lock()
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// wrong records an output mismatch; the run still finishes and reports.
func (r *Run) wrong(err error) {
	if err != nil {
		r.mu.Lock()
		r.Wrong = append(r.Wrong, err)
		r.mu.Unlock()
	}
}

// setPct sets a tail percentile, failing the run if the sample is too small
// to have minBeyond samples beyond it (the run is sized so it never is).
func (r *Run) setPct(name string, s *Sample, p float64) error {
	pc, err := s.Percentile(p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, pc.Value)
	r.note("%s = %.4g from %s", name, pc.Value, pc)
	return nil
}

// setMedian sets a median and notes its sample count.
func (r *Run) setMedian(name string, s *Sample) {
	r.set(name, s.Median())
	r.note("%s = %.4g from p50 of n=%d", name, s.Median(), s.Len())
}

// Env is one set-up system under test.
type Env interface{ Close() }

// setupRepeats is how many times a run sets up; setup_s is their median and
// the last set-up is the one measured.
const setupRepeats = 3

// setUp builds the system setupRepeats times, reports the median set-up time
// and returns the last one.
func setUp[E Env](r *Run, build func() (E, error)) (E, error) {
	var env E
	var s Sample
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			env.Close()
		}
		runtime.GC()
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		s.AddDur(time.Since(start), time.Second)
		env = e
	}
	r.setMedian("setup_s", &s)
	return env, nil
}

var workloads = map[string]func(*Run) error{
	"oltp":  func(r *Run) error { return runTPCC(r, false) },
	"htap":  func(r *Run) error { return runTPCC(r, true) },
	"olap":  runOLAP,
	"joins": runJoins,
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	r := &Run{Metrics: map[string]float64{}}
	flag.StringVar(&r.Workload, "workload", "", "oltp, olap, htap or joins")
	flag.Int64Var(&r.Seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&r.Seconds, "seconds", 20, "nominal run length: sets the fixed number of operations per client")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&r.SpansDir, "spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	list := flag.Bool("list", false, "print every metric with its unit and exit")
	flag.Parse()
	if *list {
		printCatalog(os.Stdout)
		return
	}
	run, ok := workloads[r.Workload]
	if !ok || r.Seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oltp|olap|htap|joins --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r.Trace = *trace == 1
	err := run(r)
	sort.Strings(r.Notes)
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", r.Workload, err)
		os.Exit(2)
	}

	metrics := endToEnd
	if r.Trace {
		metrics = perLayer()
	}
	out := result{Correct: len(r.Wrong) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, m := range metrics {
		v, ok := r.Metrics[m.Name]
		if !ok && !r.Trace {
			missing = append(missing, m.Name)
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench %s: no value for %v\n", r.Workload, missing)
		os.Exit(2)
	}
	if r.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench %s: no operation attempted\n", r.Workload)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "%s seed=%d: attempted %d, failed %d (%.2f%%)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, 100*ratio(float64(r.Failed), float64(r.Attempted)))
	for _, err := range r.Wrong {
		fmt.Fprintln(os.Stderr, "WRONG:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// errDeadline marks an operation that missed its deadline.
var errDeadline = errors.New("operation missed its deadline")

// withDeadline runs op on its own goroutine and waits at most d for it. A
// missed deadline abandons the goroutine: the caller must not touch
// anything op uses again and continues on fresh state.
func withDeadline(d time.Duration, op func() error) error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errDeadline
	}
}
