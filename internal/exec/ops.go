package exec

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/types"
)

// Operator is a Volcano-style iterator. Next returns io.EOF when exhausted.
type Operator interface {
	Schema() *types.Schema
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (types.Row, error)
	Close() error
}

// Sized is implemented by operators that know their output row count once
// Open has run (materializing sources); Collect uses it to pre-size its
// result slice. RowCount returns -1 when the count is unknown.
type Sized interface {
	RowCount() int
}

// Collect opens, drains and closes op.
func Collect(ctx *Ctx, op Operator) ([]types.Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	if s, ok := op.(Sized); ok {
		if n := s.RowCount(); n > 0 {
			out = make([]types.Row, 0, n)
		}
	}
	for {
		row, err := op.Next(ctx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}

// ---------------------------------------------------------------------------
// Values / Source
// ---------------------------------------------------------------------------

// Values replays a fixed row set (VALUES lists, gathered remote results,
// CTE materializations).
type Values struct {
	Rows   []types.Row
	schema *types.Schema
	pos    int
}

// NewValues builds a Values operator.
func NewValues(schema *types.Schema, rows []types.Row) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Operator.
func (v *Values) Schema() *types.Schema { return v.schema }

// Open implements Operator.
func (v *Values) Open(*Ctx) error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next(*Ctx) (types.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, io.EOF
	}
	r := v.Rows[v.pos]
	v.pos++
	return r, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// RowCount implements Sized.
func (v *Values) RowCount() int { return len(v.Rows) }

// Source adapts a callback-style scan (storage.Table.Scan and friends) to
// an Operator by materializing at Open. ScanFn is re-invoked on every Open,
// so the operator can be re-executed (correlated subplans).
type Source struct {
	Name   string
	schema *types.Schema
	ScanFn func(emit func(types.Row) bool)
	rows   []types.Row
	pos    int
}

// NewSource builds a Source over scan.
func NewSource(name string, schema *types.Schema, scan func(emit func(types.Row) bool)) *Source {
	return &Source{Name: name, schema: schema, ScanFn: scan}
}

// Schema implements Operator.
func (s *Source) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *Source) Open(*Ctx) error {
	s.rows = s.rows[:0]
	s.ScanFn(func(r types.Row) bool {
		s.rows = append(s.rows, r)
		return true
	})
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *Source) Next(*Ctx) (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// RowCount implements Sized.
func (s *Source) RowCount() int { return len(s.rows) }

// Close implements Operator. The row buffer keeps its capacity so
// re-executed sources (correlated subplans Open/Close per outer row) do not
// reallocate it every iteration.
func (s *Source) Close() error { s.rows = s.rows[:0]; return nil }

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

// Filter passes rows whose predicate evaluates to true (NULL counts as
// false, per SQL).
type Filter struct {
	Child Operator
	Pred  Expr
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error { return f.Child.Open(ctx) }

// Next implements Operator.
func (f *Filter) Next(ctx *Ctx) (types.Row, error) {
	for {
		row, err := f.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		ok, err := EvalBool(f.Pred, ctx, row)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// EvalBool evaluates a predicate with SQL semantics (NULL -> false).
func EvalBool(e Expr, ctx *Ctx, row types.Row) (bool, error) {
	v, err := e.Eval(ctx, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("exec: predicate evaluated to %s, want BOOL", v.Kind())
	}
	return v.Bool(), nil
}

// Project computes output expressions per row.
type Project struct {
	Child Operator
	Exprs []Expr
	Out   *types.Schema
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error { return p.Child.Open(ctx) }

// Next implements Operator.
func (p *Project) Next(ctx *Ctx) (types.Row, error) {
	row, err := p.Child.Next(ctx)
	if err != nil {
		return nil, err
	}
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(ctx, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// JoinType enumerates supported join types.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	CrossJoin
)

// NestedLoopJoin joins by re-scanning the (materialized) right side per
// left row. Used for non-equi conditions and cross joins.
type NestedLoopJoin struct {
	Type        JoinType
	Left, Right Operator
	On          Expr // nil for cross join
	out         *types.Schema

	right   []types.Row
	cur     types.Row
	ri      int
	matched bool
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *types.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Ctx) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	rows, err := Collect(ctx, j.Right)
	if err != nil {
		return err
	}
	j.right = rows
	j.cur = nil
	j.ri = 0
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next(ctx *Ctx) (types.Row, error) {
	nRight := len(j.Right.Schema().Columns)
	for {
		if j.cur == nil {
			row, err := j.Left.Next(ctx)
			if err != nil {
				return nil, err
			}
			j.cur = row
			j.ri = 0
			j.matched = false
		}
		for j.ri < len(j.right) {
			r := j.right[j.ri]
			j.ri++
			joined := append(append(make(types.Row, 0, len(j.cur)+len(r)), j.cur...), r...)
			if j.On != nil {
				ok, err := EvalBool(j.On, ctx, joined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			j.matched = true
			return joined, nil
		}
		// Left outer: emit null-extended row when no match.
		if j.Type == LeftJoin && !j.matched {
			left := j.cur
			j.cur = nil
			out := append(append(make(types.Row, 0, len(left)+nRight), left...), make(types.Row, nRight)...)
			return out, nil
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.right = nil
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// HashJoin is an equi-join: build a hash table on the right side keyed by
// RightKeys, probe with LeftKeys. ExtraOn, if set, is evaluated over the
// combined row as a residual filter.
type HashJoin struct {
	Type        JoinType
	Left, Right Operator
	LeftKeys    []Expr
	RightKeys   []Expr
	ExtraOn     Expr
	// Bloom, when set, receives a bloom filter over the build side's
	// BloomKey-th key before the probe side opens — sideways information
	// passing so an NDP probe-side scan can drop non-matching rows on the
	// DN (see plan.ScanPushdown).
	Bloom    *BloomHandle
	BloomKey int
	// Dist, when set by the planner, is a distributed execution of this
	// join (co-located / broadcast / shuffle fragments built by the
	// engine). The join delegates to it wholesale and never opens its
	// children — they stay attached only so planning passes (projection
	// pushdown) can keep analyzing the tree.
	Dist Operator
	out  *types.Schema

	table   map[string][]types.Row
	cur     types.Row
	bucket  []types.Row
	bi      int
	matched bool
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator. The build side streams directly into the hash
// table — no intermediate row slice — before the probe side opens, so a
// sideways bloom filter (j.Bloom) is always published before any
// probe-side scan fragment starts. The bloom is built only after the whole
// build side has been consumed without error: a failed build must
// propagate its error instead of publishing a filter that probe fragments
// would wait on.
func (j *HashJoin) Open(ctx *Ctx) error {
	if j.Dist != nil {
		return j.Dist.Open(ctx)
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string][]types.Row)
	n := 0
	for {
		r, err := j.Right.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n++
		key, null, err := keyOf(ctx, j.RightKeys, r)
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never match
		}
		j.table[key] = append(j.table[key], r)
	}
	if j.Bloom != nil {
		bf := NewBloom(n)
		for _, bucket := range j.table {
			for _, r := range bucket {
				v, err := j.RightKeys[j.BloomKey].Eval(ctx, r)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue // NULL keys never match; nothing to admit
				}
				bf.Add(v)
			}
		}
		j.Bloom.Set(bf)
	}
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	j.cur = nil
	return nil
}

// keyOf encodes key expressions into a map key; null reports any NULL key
// part.
func keyOf(ctx *Ctx, keys []Expr, row types.Row) (string, bool, error) {
	var sb strings.Builder
	for _, k := range keys {
		v, err := k.Eval(ctx, row)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		// Normalize numerics so INT 3 matches FLOAT 3.0 (consistent with
		// types.Compare).
		if v.Kind() == types.KindInt || v.Kind() == types.KindFloat {
			fmt.Fprintf(&sb, "n:%g|", v.Float())
		} else {
			fmt.Fprintf(&sb, "%d:%s|", v.Kind(), v.String())
		}
	}
	return sb.String(), false, nil
}

// Next implements Operator.
func (j *HashJoin) Next(ctx *Ctx) (types.Row, error) {
	if j.Dist != nil {
		return j.Dist.Next(ctx)
	}
	nRight := len(j.Right.Schema().Columns)
	for {
		if j.cur == nil {
			row, err := j.Left.Next(ctx)
			if err != nil {
				return nil, err
			}
			j.cur = row
			j.matched = false
			key, null, err := keyOf(ctx, j.LeftKeys, row)
			if err != nil {
				return nil, err
			}
			if null {
				j.bucket = nil
			} else {
				j.bucket = j.table[key]
			}
			j.bi = 0
		}
		for j.bi < len(j.bucket) {
			r := j.bucket[j.bi]
			j.bi++
			joined := append(append(make(types.Row, 0, len(j.cur)+len(r)), j.cur...), r...)
			if j.ExtraOn != nil {
				ok, err := EvalBool(j.ExtraOn, ctx, joined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			j.matched = true
			return joined, nil
		}
		if j.Type == LeftJoin && !j.matched {
			left := j.cur
			j.cur = nil
			out := append(append(make(types.Row, 0, len(left)+nRight), left...), make(types.Row, nRight)...)
			return out, nil
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	if j.Dist != nil {
		return j.Dist.Close()
	}
	j.table = nil
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// EncodeJoinKey encodes key expressions evaluated over row into the map
// key HashJoin uses, reporting null=true when any key part is NULL (such
// rows can never match an equi-join). Exported so distributed join
// fragments partition and build with byte-identical keys.
func EncodeJoinKey(ctx *Ctx, keys []Expr, row types.Row) (string, bool, error) {
	return keyOf(ctx, keys, row)
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate kinds.
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (k AggKind) String() string {
	switch k {
	case AggCountStar, AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "agg?"
	}
}

// AggSpec is one aggregate in an Agg operator.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for count(*)
	Distinct bool
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	min     types.Datum
	max     types.Datum
	seen    map[string]struct{} // for DISTINCT, keyed by group-key encoding
	any     bool
}

// HashAgg is push-style hash aggregation: callers Add rows one at a time
// (straight from a scan callback, say) and collect the result with Rows.
// Output rows are the group-by values followed by the aggregate results,
// groups in first-seen order. With no group-by expressions Rows returns
// exactly one row, zero-row input included.
//
// Adding a row to an existing group allocates nothing: the group key is
// encoded into a reused buffer (see AppendKey) and the map is probed
// without converting it to a string.
type HashAgg struct {
	groupBy []Expr
	aggs    []AggSpec
	index   map[string]int // encoded group key -> group ordinal
	keys    []types.Row    // group-by values per group
	states  []aggState     // group g's states at [g*len(aggs), (g+1)*len(aggs))
	vals    types.Row      // group-by values scratch
	buf     []byte         // group-key scratch
	dbuf    []byte         // DISTINCT-value scratch
}

// NewHashAgg builds an empty aggregation.
func NewHashAgg(groupBy []Expr, aggs []AggSpec) *HashAgg {
	return &HashAgg{groupBy: groupBy, aggs: aggs, index: make(map[string]int), vals: make(types.Row, len(groupBy))}
}

// Add accumulates one input row.
func (h *HashAgg) Add(ctx *Ctx, row types.Row) error {
	h.buf = h.buf[:0]
	for i, g := range h.groupBy {
		v, err := g.Eval(ctx, row)
		if err != nil {
			return err
		}
		h.vals[i] = v
		h.buf = AppendKey(h.buf, v)
	}
	grp, ok := h.index[string(h.buf)]
	if !ok {
		grp = h.newGroup(string(h.buf), h.vals.Clone())
	}
	states := h.states[grp*len(h.aggs) : (grp+1)*len(h.aggs)]
	for i, spec := range h.aggs {
		if err := states[i].update(ctx, spec, row, &h.dbuf); err != nil {
			return err
		}
	}
	return nil
}

// newGroup registers a group under its encoded key and returns its ordinal.
func (h *HashAgg) newGroup(enc string, key types.Row) int {
	grp := len(h.keys)
	h.index[enc] = grp
	h.keys = append(h.keys, key)
	for _, spec := range h.aggs {
		var s aggState
		if spec.Distinct {
			s.seen = make(map[string]struct{})
		}
		h.states = append(h.states, s)
	}
	return grp
}

// Rows returns the aggregated rows.
func (h *HashAgg) Rows() []types.Row {
	if len(h.keys) == 0 && len(h.groupBy) == 0 {
		h.newGroup("", nil) // identity row: count=0, sums NULL
	}
	rows := make([]types.Row, len(h.keys))
	for g, key := range h.keys {
		out := make(types.Row, 0, len(key)+len(h.aggs))
		out = append(out, key...)
		for i, spec := range h.aggs {
			out = append(out, h.states[g*len(h.aggs)+i].result(spec))
		}
		rows[g] = out
	}
	return rows
}

// Agg is a hash aggregation operator over a HashAgg: output columns are the
// group-by values followed by the aggregate results. With no group-by
// expressions it emits exactly one row (aggregates over the whole input,
// zero-row input included).
type Agg struct {
	Child   Operator
	GroupBy []Expr
	Aggs    []AggSpec
	Out     *types.Schema

	groups []types.Row
	pos    int
}

// Schema implements Operator.
func (a *Agg) Schema() *types.Schema { return a.Out }

// Open implements Operator.
func (a *Agg) Open(ctx *Ctx) error {
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	defer a.Child.Close()
	h := NewHashAgg(a.GroupBy, a.Aggs)
	for {
		row, err := a.Child.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := h.Add(ctx, row); err != nil {
			return err
		}
	}
	a.groups = h.Rows()
	a.pos = 0
	return nil
}

func (s *aggState) update(ctx *Ctx, spec AggSpec, row types.Row, dbuf *[]byte) error {
	if spec.Kind == AggCountStar {
		s.count++
		return nil
	}
	v, err := spec.Arg.Eval(ctx, row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if spec.Distinct {
		*dbuf = AppendKey((*dbuf)[:0], v)
		if _, dup := s.seen[string(*dbuf)]; dup {
			return nil
		}
		s.seen[string(*dbuf)] = struct{}{}
	}
	s.count++
	switch spec.Kind {
	case AggCount:
		// count only
	case AggSum, AggAvg:
		switch v.Kind() {
		case types.KindInt:
			if s.isFloat {
				s.sumF += float64(v.Int())
			} else {
				s.sumI += v.Int()
			}
		case types.KindFloat:
			if !s.isFloat {
				s.sumF = float64(s.sumI)
				s.isFloat = true
			}
			s.sumF += v.Float()
		default:
			return fmt.Errorf("exec: %s over %s", spec.Kind, v.Kind())
		}
	case AggMin:
		if !s.any {
			s.min = v
		} else if c, err := types.Compare(v, s.min); err != nil {
			return err
		} else if c < 0 {
			s.min = v
		}
	case AggMax:
		if !s.any {
			s.max = v
		} else if c, err := types.Compare(v, s.max); err != nil {
			return err
		} else if c > 0 {
			s.max = v
		}
	}
	s.any = true
	return nil
}

func (s *aggState) result(spec AggSpec) types.Datum {
	switch spec.Kind {
	case AggCountStar, AggCount:
		return types.NewInt(s.count)
	case AggSum:
		if !s.any {
			return types.Null
		}
		if s.isFloat {
			return types.NewFloat(s.sumF)
		}
		return types.NewInt(s.sumI)
	case AggAvg:
		if s.count == 0 {
			return types.Null
		}
		if s.isFloat {
			return types.NewFloat(s.sumF / float64(s.count))
		}
		return types.NewFloat(float64(s.sumI) / float64(s.count))
	case AggMin:
		if !s.any {
			return types.Null
		}
		return s.min
	case AggMax:
		if !s.any {
			return types.Null
		}
		return s.max
	default:
		return types.Null
	}
}

// Next implements Operator.
func (a *Agg) Next(*Ctx) (types.Row, error) {
	if a.pos >= len(a.groups) {
		return nil, io.EOF
	}
	r := a.groups[a.pos]
	a.pos++
	return r, nil
}

// Close implements Operator.
func (a *Agg) Close() error { a.groups = nil; return nil }

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct
// ---------------------------------------------------------------------------

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes and sorts its input.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rows []types.Row
	pos  int
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	rows, err := Collect(ctx, s.Child)
	if err != nil {
		return err
	}
	keys := make([][]types.Datum, len(rows))
	for i, r := range rows {
		ks := make([]types.Datum, len(s.Keys))
		for k, key := range s.Keys {
			v, err := key.Expr.Eval(ctx, r)
			if err != nil {
				return err
			}
			ks[k] = v
		}
		keys[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for k, key := range s.Keys {
			c, err := types.Compare(keys[idx[a]][k], keys[idx[b]][k])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows = make([]types.Row, len(rows))
	for i, j := range idx {
		s.rows[i] = rows[j]
	}
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *Sort) Next(*Ctx) (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *Sort) Close() error { s.rows = nil; return nil }

// Limit implements LIMIT/OFFSET. Limit < 0 means unlimited.
type Limit struct {
	Child  Operator
	Count  int64
	Offset int64

	skipped int64
	emitted int64
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.skipped, l.emitted = 0, 0
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx *Ctx) (types.Row, error) {
	for l.skipped < l.Offset {
		if _, err := l.Child.Next(ctx); err != nil {
			return nil, err
		}
		l.skipped++
	}
	if l.Count >= 0 && l.emitted >= l.Count {
		return nil, io.EOF
	}
	row, err := l.Child.Next(ctx)
	if err != nil {
		return nil, err
	}
	l.emitted++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Operator
	seen  map[string]struct{} // group-key encodings of emitted rows
	buf   []byte
}

// Schema implements Operator.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = make(map[string]struct{})
	return d.Child.Open(ctx)
}

// Next implements Operator.
func (d *Distinct) Next(ctx *Ctx) (types.Row, error) {
	for {
		row, err := d.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		d.buf = AppendRowKey(d.buf[:0], row)
		if _, dup := d.seen[string(d.buf)]; dup {
			continue
		}
		d.seen[string(d.buf)] = struct{}{}
		return row, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error { d.seen = nil; return d.Child.Close() }

// Concat streams its children in order (UNION ALL).
type Concat struct {
	Children []Operator
	Out      *types.Schema
	cur      int
}

// Schema implements Operator.
func (c *Concat) Schema() *types.Schema { return c.Out }

// Open implements Operator.
func (c *Concat) Open(ctx *Ctx) error {
	c.cur = 0
	if len(c.Children) == 0 {
		return nil
	}
	return c.Children[0].Open(ctx)
}

// Next implements Operator.
func (c *Concat) Next(ctx *Ctx) (types.Row, error) {
	for c.cur < len(c.Children) {
		row, err := c.Children[c.cur].Next(ctx)
		if err == io.EOF {
			c.Children[c.cur].Close()
			c.cur++
			if c.cur < len(c.Children) {
				if err := c.Children[c.cur].Open(ctx); err != nil {
					return nil, err
				}
			}
			continue
		}
		return row, err
	}
	return nil, io.EOF
}

// Close implements Operator.
func (c *Concat) Close() error {
	for i := c.cur; i < len(c.Children); i++ {
		c.Children[i].Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

// Counted wraps an operator and counts the rows it produces; the learning
// optimizer's producer (internal/planstore) reads ActualRows after the
// query finishes (paper §II-C "captures actual execution statistics").
type Counted struct {
	Child Operator
	// StepText is the canonical logical step definition this operator
	// implements; set by the planner.
	StepText string
	// EstimatedRows is the optimizer's cardinality estimate for this step.
	EstimatedRows float64
	// ActualRows counts rows produced in the most recent execution.
	ActualRows int64
}

// Schema implements Operator.
func (c *Counted) Schema() *types.Schema { return c.Child.Schema() }

// Open implements Operator.
func (c *Counted) Open(ctx *Ctx) error {
	c.ActualRows = 0
	return c.Child.Open(ctx)
}

// Next implements Operator.
func (c *Counted) Next(ctx *Ctx) (types.Row, error) {
	row, err := c.Child.Next(ctx)
	if err == nil {
		c.ActualRows++
	}
	return row, err
}

// Close implements Operator.
func (c *Counted) Close() error { return c.Child.Close() }

// WalkCounted visits every Counted operator in the tree rooted at op.
func WalkCounted(op Operator, visit func(*Counted)) {
	switch o := op.(type) {
	case *Counted:
		visit(o)
		WalkCounted(o.Child, visit)
	case *Filter:
		WalkCounted(o.Child, visit)
	case *Project:
		WalkCounted(o.Child, visit)
	case *NestedLoopJoin:
		WalkCounted(o.Left, visit)
		WalkCounted(o.Right, visit)
	case *HashJoin:
		if o.Dist != nil {
			WalkCounted(o.Dist, visit)
			return
		}
		WalkCounted(o.Left, visit)
		WalkCounted(o.Right, visit)
	case *Agg:
		WalkCounted(o.Child, visit)
	case *Sort:
		WalkCounted(o.Child, visit)
	case *TopN:
		WalkCounted(o.Child, visit)
	case *Limit:
		WalkCounted(o.Child, visit)
	case *Distinct:
		WalkCounted(o.Child, visit)
	}
}

// ErrNotFound is a generic sentinel for lookup misses in exec helpers.
var ErrNotFound = errors.New("exec: not found")
