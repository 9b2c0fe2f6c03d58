package cluster

import (
	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/types"
)

// Near-data processing (paper §III-B, Taurus NDP): scan fragments evaluate
// pushed filters against decoded column batches, ship only the projected
// columns, cap their output with a bounded TopN heap, and probe sideways
// bloom filters — so scan_frag responses carry pre-reduced batches instead
// of full-width row streams. Every reduction only changes *where* rows are
// dropped, never which rows the coordinator sees, so results are identical
// at every pushdown level and parallel degree.

// ndpProgram is the compiled form of one scan's pushdown spec, resolved
// against the cluster's ablation knobs once per Exchange open and shared
// read-only by the scan's fragments.
type ndpProgram struct {
	pred exec.Expr
	keep func(*colstore.Segment) bool // zone-map segment pruner

	// matCols lists the table columns materialized into shipped rows (the
	// projection plus any fragment-TopN key columns); matPos gives each
	// one's position in scanCols. Unlisted slots stay NULL — rows keep
	// schema width so coordinator-compiled column indexes stay valid, but
	// the wire is charged only for shipWidth datums per row.
	matCols   []int
	matPos    []int
	shipWidth int

	// scanCols is the batch-scan projection: matCols plus whatever the
	// predicate, TopN keys, bloom probe and ownership check read.
	scanCols []int

	topn *plan.TopNPush

	bloom    *exec.BloomHandle
	bloomCol int // table column probed against the bloom filter
	bloomPos int // its position in scanCols (-1 when bloom is off)

	distPos int // distribution key's position in scanCols (-1: no check)

	vf       *vecFilter // vectorized conjunct kernels over scanCols
	residual exec.Expr  // conjuncts the kernels could not cover (row-wise)

	tableCols int
}

// ScanNDP implements plan.NDPAccess. It refuses (falling back to the
// legacy ScanPred/Scan + coordinator-Filter path) when NDP is disabled or
// the table is virtual; everything else — row-store tables included —
// gets exact DN-side filtering and column pruning.
func (a *stmtAccess) ScanNDP(meta *plan.TableMeta, spec *plan.ScanPushdown) (exec.Operator, bool) {
	if a.s.c.DisableNDP {
		return nil, false
	}
	if _, ok := a.s.c.virtualTable(meta.Name); ok {
		return nil, false
	}
	return exec.NewParallelSource(meta.Name, meta.Schema, a.s.c.parallelDegree(), func() ([]exec.Fragment, error) {
		ti, err := a.s.c.tableInfo(meta.Name)
		if err != nil {
			return nil, err
		}
		fragSet := a.readFrags(a.targetsFor(ti))
		if err := a.s.c.requireLive(fragPhys(fragSet)); err != nil {
			return nil, err
		}
		// The spec's Cols/TopN/Bloom were filled after ScanNDP returned
		// (late binding); compile them against the ablation knobs now, at
		// open time.
		prog := a.compileNDP(ti, spec)
		frags := make([]exec.Fragment, len(fragSet))
		for i, f := range fragSet {
			f := f
			frags[i] = func(ctx *exec.Ctx, emit func(types.Row) bool) error {
				return a.runNDPFragment(ctx, ti, f, prog, emit)
			}
		}
		return frags, nil
	}), true
}

// compileNDP resolves a pushdown spec into an executable program. Caller
// must hold routeMu (it runs from the Exchange's Plan hook, inside
// statement execution, like the other fragment planners).
func (a *stmtAccess) compileNDP(ti *TableInfo, spec *plan.ScanPushdown) *ndpProgram {
	c := a.s.c
	n := ti.Meta.Schema.Len()
	p := &ndpProgram{
		pred:      spec.Pred,
		keep:      c.segmentPruner(spec.Pred),
		bloomCol:  -1,
		bloomPos:  -1,
		distPos:   -1,
		tableCols: n,
	}

	pos := map[int]int{} // table column -> scanCols position
	need := func(col int) int {
		if at, ok := pos[col]; ok {
			return at
		}
		at := len(p.scanCols)
		pos[col] = at
		p.scanCols = append(p.scanCols, col)
		return at
	}

	// Shipped columns: the plan's projection, or everything when the
	// planner could not bound it or the knob is off.
	ship := spec.Cols
	if c.DisableNDPProjection {
		ship = nil
	}
	if ship == nil {
		ship = make([]int, n)
		for i := range ship {
			ship[i] = i
		}
	}
	topn := spec.TopN
	if c.DisableNDPTopN {
		topn = nil
	}
	p.matCols = append([]int(nil), ship...)
	if topn != nil {
		// Fragment TopN keys evaluate against the sparse shipped row; make
		// sure their columns are materialized (they normally already are —
		// ORDER BY expressions are projection outputs).
		for _, k := range topn.Keys {
			exec.WalkExpr(k.Expr, func(x exec.Expr) bool {
				if cr, ok := x.(*exec.ColRef); ok && cr.Index >= 0 && cr.Index < n {
					found := false
					for _, mc := range p.matCols {
						if mc == cr.Index {
							found = true
							break
						}
					}
					if !found {
						p.matCols = append(p.matCols, cr.Index)
					}
				}
				return true
			})
		}
		p.topn = topn
	}
	p.shipWidth = len(p.matCols)
	if p.shipWidth == 0 {
		p.shipWidth = 1 // a shipped row is never free on the wire
	}
	p.matPos = make([]int, len(p.matCols))
	for i, col := range p.matCols {
		p.matPos[i] = need(col)
	}

	// Predicate columns (for the sparse residual row) and kernels.
	if spec.Pred != nil {
		exec.WalkExpr(spec.Pred, func(x exec.Expr) bool {
			if cr, ok := x.(*exec.ColRef); ok && cr.Index >= 0 && cr.Index < n {
				need(cr.Index)
			}
			return true
		})
		p.vf, p.residual = compileVecFilter(spec.Pred, n, pos)
	}

	if spec.Bloom != nil && !c.DisableNDPBloom && spec.BloomCol >= 0 && spec.BloomCol < n {
		p.bloom = spec.Bloom
		p.bloomCol = spec.BloomCol
		p.bloomPos = need(spec.BloomCol)
	}

	// Ownership filtering reads the distribution key: needed while a
	// migration is live or when fragments are redirected to standbys.
	if !ti.replicated && ti.Meta.DistKey >= 0 &&
		(c.needsBucketFilter(ti) || len(a.readMap) > 0 || len(a.splitSet) > 0) {
		p.distPos = need(ti.Meta.DistKey)
	}
	return p
}

// fragKeepDatum is fragFilter's columnar twin: the per-fragment ownership
// check expressed over the distribution-key datum alone, so batch scans
// need not materialize full rows to test ownership. nil means keep
// everything. Caller must hold routeMu.
func (c *Cluster) fragKeepDatum(ti *TableInfo, f readFrag) func(types.Datum) bool {
	if ti.replicated || ti.Meta.DistKey < 0 {
		return nil
	}
	if f.phys == f.logical && f.parity < 0 {
		if !c.needsBucketFilter(ti) {
			return nil
		}
		return func(d types.Datum) bool { return c.bmap.dn[BucketOf(d)] == f.logical }
	}
	return func(d types.Datum) bool {
		b := BucketOf(d)
		return c.bmap.dn[b] == f.logical && (f.parity < 0 || b&1 == f.parity)
	}
}

// runNDPFragment executes one DN-side scan fragment: request leg carries
// the bloom filter (if any), then the pre-reduced rows come back charged
// at their projected width.
func (a *stmtAccess) runNDPFragment(ctx *exec.Ctx, ti *TableInfo, f readFrag, p *ndpProgram, emit func(types.Row) bool) error {
	src, err := a.fragSource(ti, f)
	if err != nil {
		return err
	}
	bf := p.bloom.Get()
	req := 0
	if bf != nil {
		req = bf.SizeBytes()
	}
	if err := a.s.c.sendDN(f.phys, transport.ScanFrag, req); err != nil {
		return err
	}

	var heap *exec.TopNHeap
	if p.topn != nil {
		heap = exec.NewTopNHeap(ctx, p.topn.Keys, p.topn.Limit)
	}
	var shipped int
	var scanErr error
	// deliver feeds one surviving (already projected) row onward; false
	// stops the scan.
	deliver := func(row types.Row) bool {
		if heap != nil {
			if err := heap.Push(row); err != nil {
				scanErr = err
				return false
			}
			// A bare LIMIT never displaces rows once full: stop early.
			return !(len(p.topn.Keys) == 0 && heap.Full())
		}
		a.rowsShipped.Add(1)
		shipped++
		return emit(row)
	}

	// HTAP replicas are columnar, so offloaded fragments of row tables run
	// the vectorized body too.
	if src.col != nil {
		a.ndpScanColumnar(ctx, ti, f, p, src, bf, deliver, &scanErr)
	} else {
		a.ndpScanRows(ctx, ti, f, p, src, bf, deliver, &scanErr)
	}
	if scanErr != nil {
		return scanErr
	}
	if heap != nil {
		// Ship the kept rows in scan order: the coordinator merge then sees
		// the same relative sequence as without pushdown, keeping results
		// byte-identical at every degree and level.
		rows, err := heap.ArrivalRows()
		if err != nil {
			return err
		}
		for _, r := range rows {
			a.rowsShipped.Add(1)
			shipped++
			if !emit(r) {
				break
			}
		}
	}
	return a.s.c.sendFromDN(f.phys, transport.ScanFrag, shipped*p.shipWidth*8)
}

// ndpScanColumnar is the vectorized fragment body: selection kernels run
// over decoded column vectors, then ownership / bloom / residual checks,
// and only then are surviving rows materialized — sparse, at schema width,
// carrying just the projected columns.
func (a *stmtAccess) ndpScanColumnar(ctx *exec.Ctx, ti *TableInfo, f readFrag, p *ndpProgram, src fragSource, bf *exec.Bloom, deliver func(types.Row) bool, scanErr *error) {
	owns := a.s.c.fragKeepDatum(ti, f)
	var sel []bool
	var sparse types.Row // reused for residual predicate evaluation
	src.col.ScanBatchesWhere(src.xid, src.snap, p.scanCols, p.keep, func(b *colstore.Batch) bool {
		if cap(sel) < b.N {
			sel = make([]bool, b.N)
		}
		sel = sel[:b.N]
		for i := range sel {
			sel[i] = true
		}
		if p.vf != nil {
			if err := p.vf.apply(b, sel); err != nil {
				*scanErr = err
				return false
			}
		}
		for i := 0; i < b.N; i++ {
			if !sel[i] {
				continue
			}
			if owns != nil && p.distPos >= 0 && !owns(b.Cols[p.distPos].DatumAt(i)) {
				continue // migration phantom / other split half
			}
			if bf != nil {
				d := b.Cols[p.bloomPos].DatumAt(i)
				if d.IsNull() || !bf.MayContain(d) {
					continue // provably cannot match the join's build side
				}
			}
			if p.residual != nil {
				if sparse == nil {
					sparse = make(types.Row, p.tableCols)
				}
				for j, c := range p.scanCols {
					sparse[c] = b.Cols[j].DatumAt(i)
				}
				ok, err := exec.EvalBool(p.residual, ctx, sparse)
				if err != nil {
					*scanErr = err
					return false
				}
				if !ok {
					continue
				}
			}
			row := make(types.Row, p.tableCols)
			for j, c := range p.matCols {
				row[c] = b.Cols[p.matPos[j]].DatumAt(i)
			}
			if !deliver(row) {
				return false
			}
		}
		return true
	})
}

// ndpScanRows is the row-store fragment body: the same exact filtering,
// but row-at-a-time, and — unlike the legacy path's full Clone — only the
// projected columns are copied out of the store's row.
func (a *stmtAccess) ndpScanRows(ctx *exec.Ctx, ti *TableInfo, f readFrag, p *ndpProgram, src fragSource, bf *exec.Bloom, deliver func(types.Row) bool, scanErr *error) {
	owns := a.s.c.fragFilter(ti, f)
	src.row.Scan(src.xid, src.snap, func(r types.Row) bool {
		if owns != nil && !owns(r) {
			return true
		}
		if p.pred != nil {
			ok, err := exec.EvalBool(p.pred, ctx, r)
			if err != nil {
				*scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		if bf != nil {
			d := r[p.bloomCol]
			if d.IsNull() || !bf.MayContain(d) {
				return true
			}
		}
		row := make(types.Row, p.tableCols)
		for _, c := range p.matCols {
			row[c] = r[c]
		}
		return deliver(row)
	})
}
