package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/types"
)

// setupColFacts loads a columnar table whose aggregate answers are known.
func setupColFacts(t *testing.T, rows int) (*Cluster, *Session) {
	t.Helper()
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE cf (k BIGINT, grp BIGINT, vi BIGINT, vf DOUBLE, name TEXT) DISTRIBUTE BY HASH(k) USING COLUMN")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO cf VALUES (%d, %d, %d, %d.5, 'n%d')", i, i%3, i, i, i%5))
	}
	return c, s
}

func TestVectorizedAggMatchesRowPath(t *testing.T) {
	_, s := setupColFacts(t, 300)
	// The vectorized path fires for this shape (columnar, no WHERE, plain
	// column refs); verify values against hand-computed answers.
	res := mustExec(t, s, "SELECT grp, count(*), sum(vi), min(vi), max(vi), sum(vf) FROM cf GROUP BY grp ORDER BY grp")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for g := int64(0); g < 3; g++ {
		r := res.Rows[g]
		if r[0].Int() != g || r[1].Int() != 100 {
			t.Errorf("group %d header = %v", g, r)
		}
		wantSum := int64(100*g) + 3*4950 // g, g+3, ..., g+297
		if r[2].Int() != wantSum {
			t.Errorf("group %d sum = %v, want %d", g, r[2], wantSum)
		}
		if r[3].Int() != g || r[4].Int() != g+297 {
			t.Errorf("group %d min/max = %v/%v", g, r[3], r[4])
		}
		if r[5].Float() != float64(wantSum)+50 { // vf = vi + 0.5 each
			t.Errorf("group %d float sum = %v", g, r[5])
		}
	}
	// Global aggregate (no groups) through the same path.
	res = mustExec(t, s, "SELECT count(*), min(name), max(name) FROM cf")
	r := res.Rows[0]
	if r[0].Int() != 300 || r[1].Str() != "n0" || r[2].Str() != "n4" {
		t.Errorf("global agg = %v", r)
	}
	// WHERE stays on the vectorized path (the predicate runs as a selection
	// kernel); results must agree with the generic path.
	res = mustExec(t, s, "SELECT count(*) FROM cf WHERE vi < 100")
	if res.Rows[0][0].Int() != 100 {
		t.Errorf("filtered count = %v", res.Rows[0][0])
	}
}

func TestVectorizedAggEmptyTable(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE e (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a) USING COLUMN")
	res := mustExec(t, s, "SELECT count(*), sum(b) FROM e")
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty vectorized agg = %v", res.Rows[0])
	}
}

func TestVectorizedAggNulls(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE n (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a) USING COLUMN")
	mustExec(t, s, "INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)")
	res := mustExec(t, s, "SELECT count(*), count(b), sum(b), min(b) FROM n")
	r := res.Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 2 || r[2].Int() != 40 || r[3].Int() != 10 {
		t.Errorf("null handling = %v", r)
	}
}

func TestBuildVecPlanRejections(t *testing.T) {
	// Non-column group expression.
	if _, ok := buildVecPlan(3, nil, []exec.Expr{&exec.BinOp{Op: "+", Left: &exec.ColRef{Index: 0}, Right: &exec.Const{Value: types.NewInt(1)}}}, nil); ok {
		t.Error("computed group expr must not vectorize")
	}
	// Non-column agg argument.
	specs := []exec.AggSpec{{Kind: exec.AggSum, Arg: &exec.Func{Name: "abs", Args: []exec.Expr{&exec.ColRef{Index: 0}}}}}
	if _, ok := buildVecPlan(3, nil, nil, specs); ok {
		t.Error("computed agg arg must not vectorize")
	}
	// Plain shape vectorizes, sharing projections.
	specs = []exec.AggSpec{
		{Kind: exec.AggCountStar},
		{Kind: exec.AggSum, Arg: &exec.ColRef{Index: 2}},
		{Kind: exec.AggMin, Arg: &exec.ColRef{Index: 2}},
	}
	p, ok := buildVecPlan(3, nil, []exec.Expr{&exec.ColRef{Index: 1}}, specs)
	if !ok {
		t.Fatal("plain shape must vectorize")
	}
	if len(p.scanCols) != 2 { // cols 1 and 2, shared between sum and min
		t.Errorf("scanCols = %v", p.scanCols)
	}
}

// BenchmarkVectorizedVsRowAgg times partial aggregation per input row on
// both storage formats: the 4-group shape without a filter, and the olap
// workload's shape (a filter passing about half the rows, 1000 groups).
// It reports ns/row and allocs/row over the rows scanned.
func BenchmarkVectorizedVsRowAgg(b *testing.B) {
	const rows = 30000
	mk := func(b *testing.B, storage string) *Session {
		c, _ := New(Config{DataNodes: 1})
		s := c.NewSession()
		s.Exec(fmt.Sprintf("CREATE TABLE f (k BIGINT, grp BIGINT, v BIGINT, g BIGINT, p1 BIGINT) DISTRIBUTE BY HASH(k) USING %s", storage))
		s.Exec("BEGIN")
		var vals []string
		for i := 0; i < rows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d, %d)", i, i%4, i, i*7919%1000, i%100))
			if len(vals) == 1000 {
				if _, err := s.Exec("INSERT INTO f VALUES " + strings.Join(vals, ", ")); err != nil {
					b.Fatal(err)
				}
				vals = vals[:0]
			}
		}
		s.Exec("COMMIT")
		return s
	}
	for _, storage := range []string{"COLUMN", "ROW"} {
		s := mk(b, storage)
		for _, q := range []struct{ name, sql string }{
			{"4-groups", "SELECT grp, count(*), sum(v) FROM f GROUP BY grp"},
			{"olap", "SELECT g, count(*), sum(v) FROM f WHERE p1 < 50 GROUP BY g"},
		} {
			b.Run(strings.ToLower(storage)+"/"+q.name, func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(q.sql); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				scanned := float64(b.N) * rows
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/scanned, "ns/row")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/scanned, "allocs/row")
			})
		}
	}
}

// TestGroupKeyCollisions: values that print alike must still form separate
// groups, on both storage formats (the columnar GROUP BY runs the
// vectorized partial aggregate, the row one exec.HashAgg).
func TestGroupKeyCollisions(t *testing.T) {
	cases := []struct {
		name, cols, keys string
		values           []string
		groups           int   // GROUP BY keys / SELECT DISTINCT keys
		distinct         int64 // count(DISTINCT first key column)
	}{
		{"ints above 2^53", "a BIGINT", "a",
			[]string{"9007199254740992", "9007199254740993", "1", "2", "1"}, 4, 4},
		{"NULL vs 'NULL'", "s TEXT", "s",
			[]string{"NULL", "'NULL'", "'NULL'"}, 2, 1},
		{"comma inside a string", "s TEXT, t TEXT", "s, t",
			[]string{"'p, q', 'r'", "'p', 'q, r'"}, 2, 2},
		{"separator inside a string", "s TEXT, t TEXT", "s, t",
			[]string{"'x|4:y', 'z'", "'x', 'y|4:z'"}, 2, 2},
	}
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	for i, tc := range cases {
		for _, storage := range []string{"ROW", "COLUMN"} {
			tbl := fmt.Sprintf("kc%d%s", i, storage)
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k BIGINT, %s) DISTRIBUTE BY HASH(k) USING %s", tbl, tc.cols, storage))
			for _, v := range tc.values {
				// One distribution key: every row meets in one partition,
				// so the DN-side partial aggregate sees each collision.
				mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (1, %s)", tbl, v))
			}
			first := strings.SplitN(tc.keys, ",", 2)[0]
			grouped := mustExec(t, s, fmt.Sprintf("SELECT %s, count(*) FROM %s GROUP BY %s", tc.keys, tbl, tc.keys))
			if len(grouped.Rows) != tc.groups {
				t.Errorf("%s/%s GROUP BY: %d groups %v, want %d", tc.name, storage, len(grouped.Rows), grouped.Rows, tc.groups)
			}
			distinct := mustExec(t, s, fmt.Sprintf("SELECT DISTINCT %s FROM %s", tc.keys, tbl))
			if len(distinct.Rows) != tc.groups {
				t.Errorf("%s/%s SELECT DISTINCT: %d rows %v, want %d", tc.name, storage, len(distinct.Rows), distinct.Rows, tc.groups)
			}
			counted := mustExec(t, s, fmt.Sprintf("SELECT count(DISTINCT %s) FROM %s", first, tbl))
			if got := counted.Rows[0][0].Int(); got != tc.distinct {
				t.Errorf("%s/%s count(DISTINCT %s) = %d, want %d", tc.name, storage, first, got, tc.distinct)
			}
		}
	}
}

// typedMultiset renders rows as a sorted multiset that keeps each datum's
// kind and quotes its text, so no two different results render alike.
func typedMultiset(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, d := range r {
			fmt.Fprintf(&sb, "%s:%q ", d.Kind(), d.String())
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestVectorizedPartialAggParity runs the same aggregates over one data
// set stored as a columnar table (vectorized partial aggregation) and as a
// row table (exec.HashAgg under the scan): results must be equal multisets
// and ship equally many partial rows, at every parallel degree.
func TestVectorizedPartialAggParity(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	rng := rand.New(rand.NewSource(7))
	orNull := func(v string) string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return v
	}
	var values []string
	for i := 0; i < 3000; i++ {
		values = append(values, fmt.Sprintf("(%d, %s, %s, %s, %s, %d)", i,
			orNull(fmt.Sprint(rng.Intn(40))),
			orNull(fmt.Sprintf("'x%d'", rng.Intn(6))),
			orNull(fmt.Sprint(rng.Intn(1000))),
			orNull(fmt.Sprintf("%d.5", rng.Intn(100))),
			rng.Intn(100)))
	}
	const cols = "(k BIGINT, g BIGINT, s TEXT, v BIGINT, f DOUBLE, p BIGINT) DISTRIBUTE BY HASH(k)"
	for _, tbl := range []string{"pcol", "prow", "tinycol", "tinyrow", "emptycol", "emptyrow"} {
		storage := "ROW"
		if strings.HasSuffix(tbl, "col") {
			storage = "COLUMN"
		}
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s %s USING %s", tbl, cols, storage))
	}
	for _, tbl := range []string{"pcol", "prow"} {
		// Seal the first 2000 rows into segments; the rest stay in the
		// columnar delta buffer.
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, strings.Join(values[:2000], ", ")))
		if ti, _ := c.tableInfo(tbl); ti.columnar() {
			for _, part := range ti.colParts() {
				part.Flush()
			}
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, strings.Join(values[2000:], ", ")))
	}
	for _, tbl := range []string{"tinycol", "tinyrow"} { // most partitions empty
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, strings.Join(values[:2], ", ")))
	}

	preds := []string{
		"",                                  // no filter
		"WHERE p < 30",                      // fully vectorized
		"WHERE p >= 10 AND v < 500",         // fully vectorized, two kernels
		"WHERE s <> 'x1' AND f > 20",        // kernels over text and float
		"WHERE p < 50 AND (g = 1 OR g = 2)", // kernel plus residual
		"WHERE p + v > 600 AND s = 'x2'",    // residual plus kernel
		"WHERE g = 3 OR p > 90",             // not vectorized at all
		"WHERE p > 1000",                    // nothing survives
	}
	shapes := []string{
		"SELECT g, count(*), count(v), sum(v), min(v), max(v), sum(f), min(s), max(s) FROM %s %s GROUP BY g",
		"SELECT s, g, count(*), sum(f), max(f) FROM %s %s GROUP BY s, g",
		"SELECT count(*), count(s), sum(v), min(f), max(s) FROM %s %s",
	}
	for _, pair := range [][2]string{{"pcol", "prow"}, {"tinycol", "tinyrow"}, {"emptycol", "emptyrow"}} {
		for _, shape := range shapes {
			for _, pred := range preds {
				for _, degree := range []int{1, 4} {
					c.ParallelDegree = degree
					col := mustExec(t, s, fmt.Sprintf(shape, pair[0], pred))
					row := mustExec(t, s, fmt.Sprintf(shape, pair[1], pred))
					q := fmt.Sprintf(shape, pair[0]+"/"+pair[1], pred)
					if col.RowsShipped != row.RowsShipped {
						t.Errorf("%s @%d: columnar shipped %d partial rows, row store %d", q, degree, col.RowsShipped, row.RowsShipped)
					}
					if a, b := typedMultiset(col.Rows), typedMultiset(row.Rows); a != b {
						t.Errorf("%s @%d:\ncolumnar:\n%s\nrow store:\n%s", q, degree, a, b)
					}
				}
			}
		}
	}
	c.ParallelDegree = 0
}

// TestBuildVecPlanSplitsPredicate: col-op-const conjuncts become selection
// kernels, everything else stays in the residual, which reads only its own
// columns.
func TestBuildVecPlanSplitsPredicate(t *testing.T) {
	col := func(i int) exec.Expr { return &exec.ColRef{Index: i} }
	lit := func(v int64) exec.Expr { return &exec.Const{Value: types.NewInt(v)} }
	lt := &exec.BinOp{Op: "<", Left: col(3), Right: lit(50)}
	or := &exec.BinOp{Op: "OR", Left: &exec.BinOp{Op: "=", Left: col(1), Right: lit(1)}, Right: &exec.BinOp{Op: ">", Left: col(4), Right: lit(9)}}
	group := []exec.Expr{col(1)}
	aggs := []exec.AggSpec{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(2)}}
	for _, c := range []struct {
		name      string
		pred      exec.Expr
		kernels   int
		residCols []int
	}{
		{"full", lt, 1, nil},
		{"partial", &exec.BinOp{Op: "AND", Left: lt, Right: or}, 1, []int{1, 4}},
		{"none", or, 0, []int{1, 4}},
	} {
		p, ok := buildVecPlan(5, c.pred, group, aggs)
		if !ok {
			t.Fatalf("%s: must vectorize", c.name)
		}
		kernels := 0
		if p.vf != nil {
			kernels = len(p.vf.kernels)
		}
		if kernels != c.kernels || fmt.Sprint(p.residCols) != fmt.Sprint(c.residCols) {
			t.Errorf("%s: %d kernels, residual columns %v; want %d, %v", c.name, kernels, p.residCols, c.kernels, c.residCols)
		}
		for j, tc := range p.residCols {
			if p.scanCols[p.residPos[j]] != tc {
				t.Errorf("%s: residual column %d decoded from projection %d", c.name, tc, p.residPos[j])
			}
		}
	}
}

// TestAppendVecKeyMatchesDatumKey: keys encoded off the vectors equal the
// row path's keys for every vector kind, NULLs included.
func TestAppendVecKeyMatchesDatumKey(t *testing.T) {
	nulls := []bool{false, true}
	for _, v := range []*colstore.Vector{
		{Kind: types.KindInt, Ints: []int64{9007199254740993, 0}, Nulls: nulls},
		{Kind: types.KindTime, Ints: []int64{1_700_000_000_000_000_123, 0}, Nulls: nulls},
		{Kind: types.KindFloat, Floats: []float64{3, 0}, Nulls: nulls},
		{Kind: types.KindFloat, Floats: []float64{2.25, 0}, Nulls: nulls},
		{Kind: types.KindString, Strs: []string{"p, q", ""}, Nulls: nulls},
		{Kind: types.KindBool, Bools: []bool{true, false}, Nulls: nulls},
	} {
		for i := 0; i < 2; i++ {
			got, want := appendVecKey(nil, v, i), exec.AppendKey(nil, v.DatumAt(i))
			if string(got) != string(want) {
				t.Errorf("%s row %d: vector key %x, datum key %x", v.Kind, i, got, want)
			}
		}
	}
}

// TestVecAggAllocFree is the allocation gate for the vectorized inner
// loop: once every group of a batch exists, filtering and accumulating it
// again allocates nothing.
func TestVecAggAllocFree(t *testing.T) {
	// Table (g, v, p1); SELECT g, count(*), sum(v), min(v) ... WHERE p1 < 50
	// GROUP BY g.
	col := func(i int) exec.Expr { return &exec.ColRef{Index: i} }
	pred := &exec.BinOp{Op: "<", Left: col(2), Right: &exec.Const{Value: types.NewInt(50)}}
	aggs := []exec.AggSpec{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(1)}, {Kind: exec.AggMin, Arg: col(1)}}
	p, ok := buildVecPlan(3, pred, []exec.Expr{col(0)}, aggs)
	if !ok || p.vf == nil || p.residual != nil || fmt.Sprint(p.scanCols) != "[2 0 1]" {
		t.Fatalf("unexpected plan: ok=%v %+v", ok, p)
	}
	// One decoded batch in projection order (p1, g, v), g in 1000 groups.
	p1 := &colstore.Vector{Kind: types.KindInt}
	g := &colstore.Vector{Kind: types.KindInt}
	v := &colstore.Vector{Kind: types.KindInt}
	for i := 0; i < colstore.BatchSize; i++ {
		p1.Ints = append(p1.Ints, int64(i%100))
		g.Ints = append(g.Ints, int64(i*7919%1000))
		v.Ints = append(v.Ints, int64(i))
	}
	b := &colstore.Batch{Cols: []*colstore.Vector{p1, g, v}, N: colstore.BatchSize}
	va := newVecAgg(p, exec.NewCtx(time.Now()))
	if err := va.addBatch(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := va.addBatch(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("vectorized partial agg: %v allocs per %d-row batch, want 0", allocs, b.N)
	}
}
