package cluster

import (
	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// Vectorized aggregation fast path (paper §II: "our vectorized execution
// engine is equipped with ... fine-grained parallelism"). When a partial
// aggregate runs over a columnar partition and every group/agg expression
// is a plain column reference, the fragment works on the decoded column
// vectors directly: the pushed predicate's col-op-const conjuncts run as
// the NDP selection kernels (vecfilter.go), group keys are encoded straight
// off the vectors (exec.AppendKey's encoding), and the accumulators read
// the typed payload slices. Only a residual predicate — the conjuncts no
// kernel covers — is evaluated row-wise. Adding a row to an existing group
// allocates nothing.

// vecPlan describes a vectorizable partial aggregate: positions are into
// the scanned projection, not the table schema. A vecPlan is immutable
// after buildVecPlan, so parallel fragments share one safely.
type vecPlan struct {
	scanCols  []int // table columns to decode, in projection order
	groupIdx  []int // projection positions of the group-by columns
	aggIdx    []int // projection position per agg (-1 for count(*))
	aggKinds  []exec.AggKind
	tableCols int
	// vf holds the selection kernels of the predicate conjuncts it covers;
	// residual is the rest (nil when everything vectorized). residual's
	// ColRefs index the table schema; it evaluates over a sparse
	// schema-width row holding just residCols (decoded at residPos).
	vf        *vecFilter
	residual  exec.Expr
	residCols []int // table columns residual reads
	residPos  []int // their projection positions
}

// buildVecPlan inspects the compiled aggregate; ok is false when any
// group/agg expression is not a bare column reference (the generic row
// path handles those). pred may be any partition-pure predicate over table
// columns — its referenced columns join the scan projection.
func buildVecPlan(schemaLen int, pred exec.Expr, groupBy []exec.Expr, aggs []exec.AggSpec) (*vecPlan, bool) {
	p := &vecPlan{tableCols: schemaLen}
	proj := map[int]int{} // table col -> projection position
	need := func(tableCol int) int {
		if pos, ok := proj[tableCol]; ok {
			return pos
		}
		pos := len(p.scanCols)
		proj[tableCol] = pos
		p.scanCols = append(p.scanCols, tableCol)
		return pos
	}
	if pred != nil && !colRefsWithin(pred, schemaLen, func(c int) { need(c) }) {
		return nil, false
	}
	for _, g := range groupBy {
		cr, ok := g.(*exec.ColRef)
		if !ok || cr.Index >= schemaLen {
			return nil, false
		}
		p.groupIdx = append(p.groupIdx, need(cr.Index))
	}
	for _, spec := range aggs {
		p.aggKinds = append(p.aggKinds, spec.Kind)
		if spec.Kind == exec.AggCountStar {
			p.aggIdx = append(p.aggIdx, -1)
			continue
		}
		cr, ok := spec.Arg.(*exec.ColRef)
		if !ok || cr.Index >= schemaLen {
			return nil, false
		}
		p.aggIdx = append(p.aggIdx, need(cr.Index))
	}
	if pred != nil {
		p.vf, p.residual = compileVecFilter(pred, schemaLen, proj)
		if p.residual != nil {
			seen := map[int]bool{}
			colRefsWithin(p.residual, schemaLen, func(c int) {
				if !seen[c] {
					seen[c] = true
					p.residCols = append(p.residCols, c)
					p.residPos = append(p.residPos, proj[c])
				}
			})
		}
	}
	return p, true
}

// colRefsWithin calls fn for every column e references, reporting false
// when one lies outside the first n table columns.
func colRefsWithin(e exec.Expr, n int, fn func(col int)) bool {
	ok := true
	exec.WalkExpr(e, func(x exec.Expr) bool {
		if cr, isRef := x.(*exec.ColRef); isRef {
			if cr.Index >= n {
				ok = false
				return false
			}
			fn(cr.Index)
		}
		return true
	})
	return ok
}

// vecState is one (group, aggregate) accumulator.
type vecState struct {
	count  int64
	sumI   int64
	sumF   float64
	isF    bool
	any    bool
	minMax types.Datum
}

// vecAgg is one fragment's running partial aggregate. Groups live in
// first-seen order: group g's key is keys[g] and its accumulators are
// states[g*len(aggKinds) : (g+1)*len(aggKinds)].
type vecAgg struct {
	p      *vecPlan
	ctx    *exec.Ctx
	index  map[string]int // encoded group key -> group ordinal
	keys   []types.Row
	states []vecState
	buf    []byte    // group-key scratch
	sel    []bool    // selection vector scratch
	sparse types.Row // residual-predicate row scratch
}

func newVecAgg(p *vecPlan, ctx *exec.Ctx) *vecAgg {
	return &vecAgg{p: p, ctx: ctx, index: make(map[string]int)}
}

// runVectorizedPartialAgg aggregates one columnar partition; it returns
// the partial rows (group key columns then agg values), matching what the
// generic exec.HashAgg emits so the coordinator-side merge is identical.
// keep is the zone-map segment filter (nil scans everything); ctx
// evaluates the residual predicate.
func runVectorizedPartialAgg(tbl *colstore.Table, xid txnkit.XID, snap *txnkit.Snapshot, p *vecPlan, keep func(*colstore.Segment) bool, ctx *exec.Ctx) ([]types.Row, error) {
	va := newVecAgg(p, ctx)
	var scanErr error
	tbl.ScanBatchesWhere(xid, snap, p.scanCols, keep, func(b *colstore.Batch) bool {
		scanErr = va.addBatch(b)
		return scanErr == nil
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return va.rows(), nil
}

// addBatch filters one batch and accumulates its surviving rows.
func (va *vecAgg) addBatch(b *colstore.Batch) error {
	p := va.p
	if cap(va.sel) < b.N {
		va.sel = make([]bool, b.N)
	}
	sel := va.sel[:b.N]
	for i := range sel {
		sel[i] = true
	}
	if p.vf != nil {
		if err := p.vf.apply(b, sel); err != nil {
			return err
		}
	}
	nAggs := len(p.aggKinds)
	for i, ok := range sel {
		if !ok {
			continue
		}
		if p.residual != nil {
			match, err := va.evalResidual(b, i)
			if err != nil {
				return err
			}
			if !match {
				continue
			}
		}
		va.buf = va.buf[:0]
		for _, gi := range p.groupIdx {
			va.buf = appendVecKey(va.buf, b.Cols[gi], i)
		}
		g, found := va.index[string(va.buf)]
		if !found {
			g = va.newGroup(b, i)
		}
		states := va.states[g*nAggs : (g+1)*nAggs]
		for a, kind := range p.aggKinds {
			st := &states[a]
			if kind == exec.AggCountStar {
				st.count++
				continue
			}
			vec := b.Cols[p.aggIdx[a]]
			if vec.IsNull(i) {
				continue
			}
			st.count++
			switch kind {
			case exec.AggCount:
				// count only
			case exec.AggSum:
				switch vec.Kind {
				case types.KindInt, types.KindTime:
					if st.isF {
						st.sumF += float64(vec.Ints[i])
					} else {
						st.sumI += vec.Ints[i]
					}
				case types.KindFloat:
					if !st.isF {
						st.sumF = float64(st.sumI)
						st.isF = true
					}
					st.sumF += vec.Floats[i]
				}
			case exec.AggMin, exec.AggMax:
				d := vec.DatumAt(i)
				if !st.any {
					st.minMax = d
				} else if c, err := types.Compare(d, st.minMax); err == nil {
					if (kind == exec.AggMin && c < 0) || (kind == exec.AggMax && c > 0) {
						st.minMax = d
					}
				}
			}
			st.any = true
		}
	}
	return nil
}

// evalResidual evaluates the residual predicate on batch row i.
func (va *vecAgg) evalResidual(b *colstore.Batch, i int) (bool, error) {
	if va.sparse == nil {
		va.sparse = make(types.Row, va.p.tableCols)
	}
	for j, c := range va.p.residCols {
		va.sparse[c] = b.Cols[va.p.residPos[j]].DatumAt(i)
	}
	return exec.EvalBool(va.p.residual, va.ctx, va.sparse)
}

// newGroup registers the group whose encoded key is in va.buf, taking its
// key values from batch row i.
func (va *vecAgg) newGroup(b *colstore.Batch, i int) int {
	g := len(va.keys)
	va.index[string(va.buf)] = g
	var key types.Row
	if len(va.p.groupIdx) > 0 {
		key = make(types.Row, len(va.p.groupIdx))
		for k, gi := range va.p.groupIdx {
			key[k] = b.Cols[gi].DatumAt(i)
		}
	}
	va.keys = append(va.keys, key)
	for range va.p.aggKinds {
		va.states = append(va.states, vecState{})
	}
	return g
}

// rows renders the partial result. A global aggregate over an empty
// partition still emits its identity row (count=0, sums NULL), mirroring
// exec.HashAgg.
func (va *vecAgg) rows() []types.Row {
	p := va.p
	nAggs := len(p.aggKinds)
	if len(va.keys) == 0 && len(p.groupIdx) == 0 {
		va.keys = append(va.keys, nil)
		va.states = make([]vecState, nAggs)
	}
	rows := make([]types.Row, len(va.keys))
	for g, key := range va.keys {
		row := make(types.Row, 0, len(key)+nAggs)
		row = append(row, key...)
		for a, kind := range p.aggKinds {
			st := &va.states[g*nAggs+a]
			switch kind {
			case exec.AggCountStar, exec.AggCount:
				row = append(row, types.NewInt(st.count))
			case exec.AggSum:
				switch {
				case !st.any:
					row = append(row, types.Null)
				case st.isF:
					row = append(row, types.NewFloat(st.sumF))
				default:
					row = append(row, types.NewInt(st.sumI))
				}
			case exec.AggMin, exec.AggMax:
				if !st.any {
					row = append(row, types.Null)
				} else {
					row = append(row, st.minMax)
				}
			default:
				row = append(row, types.Null)
			}
		}
		rows[g] = row
	}
	return rows
}

// appendVecKey appends the group-key encoding of vector row i; it is
// byte-identical to exec.AppendKey(buf, v.DatumAt(i)).
func appendVecKey(buf []byte, v *colstore.Vector, i int) []byte {
	if v.IsNull(i) {
		return exec.AppendKeyNull(buf)
	}
	switch v.Kind {
	case types.KindInt:
		return exec.AppendKeyInt(buf, v.Ints[i])
	case types.KindTime:
		return exec.AppendKeyTime(buf, v.Ints[i])
	case types.KindFloat:
		return exec.AppendKeyFloat(buf, v.Floats[i])
	case types.KindString:
		return exec.AppendKeyString(buf, v.Strs[i])
	case types.KindBool:
		return exec.AppendKeyBool(buf, v.Bools[i])
	default:
		return exec.AppendKey(buf, v.DatumAt(i))
	}
}
