package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// Tracer records spans in memory for one goroutine (each client owns one,
// so recording takes no lock). A nil *Tracer records nothing: untraced runs
// pass nil and pay one nil check per boundary. TraceSet hands them out.
type Tracer struct {
	epoch time.Time
	base  int64   // ids are base+1, base+2, ...: unique across tracers
	stack []int64 // open spans, innermost last
	spans []Span
}

// Begin opens a span under the innermost open one and returns its id.
func (t *Tracer) Begin(name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	id := t.base + int64(len(t.spans)) + 1
	sp := Span{ID: id, Name: name, Start: now}
	if n := len(t.stack); n > 0 {
		sp.Parent = t.stack[n-1]
		sp.Req = t.spans[t.stack[0]-t.base-1].Req
	} else {
		sp.Req = id
	}
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, which must be the innermost open span, and returns
// its duration.
func (t *Tracer) End(id int64) time.Duration {
	if t == nil {
		return 0
	}
	sp := &t.spans[id-t.base-1]
	sp.End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
	return sp.End - sp.Start
}

// Done returns the spans recorded so far. Called by the tracer's goroutine
// before an operation that may be abandoned, it fixes what survives the
// abandonment: the operation only appends spans beyond these.
func (t *Tracer) Done() []Span {
	if t == nil {
		return nil
	}
	return t.spans[:len(t.spans):len(t.spans)]
}

// Child records an already-measured child of span parent. The engine
// reports planning time but not when planning started; it comes first in a
// statement, so the child starts with its parent.
func (t *Tracer) Child(parent int64, name string, d time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent-t.base-1]
	id := t.base + int64(len(t.spans)) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: p.ID, Req: p.Req, Name: name, Start: p.Start, End: p.Start + d})
}

// TraceSet hands out one tracer per client goroutine and gathers their
// spans. A nil *TraceSet (untraced run) hands out nil tracers.
type TraceSet struct {
	epoch   time.Time
	mu      sync.Mutex
	tracers map[*Tracer]bool
	retired []Span // spans kept from replaced tracers
	next    int64
}

func NewTraceSet() *TraceSet {
	return &TraceSet{epoch: time.Now(), tracers: map[*Tracer]bool{}}
}

// New returns a fresh tracer owned by one goroutine.
func (s *TraceSet) New() *Tracer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	t := &Tracer{epoch: s.epoch, base: s.next << 40}
	s.tracers[t] = true
	return t
}

// Replace retires t, whose goroutine was abandoned at a deadline and may
// still be writing, keeping only done (what t.Done returned before the
// abandoned operation began), and returns a fresh tracer.
func (s *TraceSet) Replace(t *Tracer, done []Span) *Tracer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	delete(s.tracers, t)
	s.retired = append(s.retired, done...)
	s.mu.Unlock()
	return s.New()
}

// Spans returns the spans of every tracer, retired ones' kept spans
// included.
func (s *TraceSet) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Span(nil), s.retired...)
	for t := range s.tracers {
		out = append(out, t.spans...)
	}
	return out
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its children cover (overlapping children count once).
func SelfTimes(spans []Span) map[int64]time.Duration {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// Layer is the layer a span name belongs to: the text before its first dot.
func Layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// SelfByLayer sums self time per layer.
func SelfByLayer(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[Layer(s.Name)] += self[s.ID]
	}
	return out
}

// DurationsByName groups span durations by span name.
func DurationsByName(spans []Span) map[string]*Sample {
	out := map[string]*Sample{}
	for _, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = &Sample{}
		}
		out[s.Name].AddDur(s.End-s.Start, time.Microsecond)
	}
	return out
}

// WriteSpans writes spans as CSV (id,parent,req,name,start_ns,end_ns).
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
