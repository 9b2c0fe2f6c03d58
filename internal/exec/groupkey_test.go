package exec

import (
	"math"
	"testing"
	"time"

	"repro/internal/types"
)

func keyOfRow(vals ...types.Datum) string { return string(AppendRowKey(nil, vals)) }

func TestGroupKeySeparatesDistinctValues(t *testing.T) {
	s := types.NewString
	for _, c := range []struct {
		name string
		a, b types.Row
	}{
		{"ints above 2^53", types.Row{types.NewInt(9007199254740992)}, types.Row{types.NewInt(9007199254740993)}},
		{"NULL vs 'NULL'", types.Row{types.Null}, types.Row{s("NULL")}},
		{"comma inside a string", types.Row{s("p, q"), s("r")}, types.Row{s("p"), s("q, r")}},
		{"separator inside a string", types.Row{s("x|4:y"), s("z")}, types.Row{s("x"), s("y|4:z")}},
		{"string vs bytes", types.Row{s("ab")}, types.Row{types.NewBytes([]byte("ab"))}},
		{"int vs time", types.Row{types.NewInt(5)}, types.Row{types.NewTime(time.Unix(0, 5))}},
		{"int vs bool", types.Row{types.NewInt(1)}, types.Row{types.NewBool(true)}},
		{"fraction vs int", types.Row{types.NewFloat(2.5)}, types.Row{types.NewInt(2)}},
		{"2^63 vs MaxInt64", types.Row{types.NewFloat(math.Exp2(63))}, types.Row{types.NewInt(math.MaxInt64)}},
		{"empty string vs none", types.Row{s(""), s("a")}, types.Row{s("a")}},
	} {
		if keyOfRow(c.a...) == keyOfRow(c.b...) {
			t.Errorf("%s: %v and %v share a group key", c.name, c.a, c.b)
		}
	}
}

func TestGroupKeyMergesEqualNumerics(t *testing.T) {
	for _, c := range []struct{ a, b types.Datum }{
		{types.NewInt(3), types.NewFloat(3.0)},
		{types.NewInt(0), types.NewFloat(math.Copysign(0, -1))},
		{types.NewInt(-9007199254740992), types.NewFloat(-9007199254740992)},
		{types.NewInt(math.MinInt64), types.NewFloat(math.MinInt64)},
		{types.NewFloat(math.NaN()), types.NewFloat(-math.NaN())},
	} {
		if keyOfRow(c.a) != keyOfRow(c.b) {
			t.Errorf("%v (%s) and %v (%s) must share a group key", c.a, c.a.Kind(), c.b, c.b.Kind())
		}
	}
}

func TestHashAggFirstSeenOrderAndIdentityRow(t *testing.T) {
	ctx := NewCtx(time.Now())
	h := NewHashAgg([]Expr{&ColRef{Index: 0}}, []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: &ColRef{Index: 1}}})
	for _, r := range []types.Row{intRow(7, 1), {types.NewFloat(3), types.NewInt(2)}, intRow(3, 4), intRow(7, 8)} {
		if err := h.Add(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	rows := h.Rows()
	if len(rows) != 2 || rows[0].String() != "(7, 2, 9)" || rows[1].String() != "(3, 2, 6)" {
		t.Fatalf("rows = %v", rows)
	}
	if rows[1][0].Kind() != types.KindFloat {
		t.Errorf("group key must keep its first-seen datum, got %s", rows[1][0].Kind())
	}
	global := NewHashAgg(nil, []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: &ColRef{Index: 0}}})
	if rows := global.Rows(); len(rows) != 1 || rows[0].String() != "(0, NULL)" {
		t.Errorf("empty global aggregate = %v", rows)
	}
}

// TestHashAggAddAllocFree is the allocation gate: adding a row to a group
// that already exists — DISTINCT value already seen included — allocates
// nothing.
func TestHashAggAddAllocFree(t *testing.T) {
	ctx := NewCtx(time.Now())
	h := NewHashAgg(
		[]Expr{&ColRef{Index: 0}, &ColRef{Index: 2}},
		[]AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Arg: &ColRef{Index: 1}},
			{Kind: AggMin, Arg: &ColRef{Index: 2}},
			{Kind: AggMax, Arg: &ColRef{Index: 1}},
			{Kind: AggCount, Arg: &ColRef{Index: 1}, Distinct: true},
		})
	row := types.Row{types.NewInt(42), types.NewFloat(1.5), types.NewString("grp")}
	if err := h.Add(ctx, row); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := h.Add(ctx, row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("HashAgg.Add on an existing group: %v allocs/row, want 0", allocs)
	}
}

func TestDistinctAggregateSeparatesLargeInts(t *testing.T) {
	src := NewSource("t", schema2("a", "b"), func(emit func(types.Row) bool) {
		for _, v := range []int64{9007199254740992, 9007199254740993, 1, 1, 2} {
			emit(intRow(v, 0))
		}
	})
	agg := &Agg{Child: src, Aggs: []AggSpec{{Kind: AggCount, Arg: &ColRef{Index: 0}, Distinct: true}}}
	if rows := collect(t, agg); rows[0][0].Int() != 4 {
		t.Errorf("count(DISTINCT a) = %v, want 4", rows[0][0])
	}
}
