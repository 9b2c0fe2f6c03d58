package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/storage"
	"repro/internal/types"
)

// setupLedger creates twin tables holding the same rows: keyed has the
// composite primary key (w, d, id), plain has none, so every UPDATE and
// DELETE on plain takes the full-heap path.
func setupLedger(t *testing.T, c *Cluster, warehouses int) *Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE keyed (w BIGINT, d BIGINT, id BIGINT, bal BIGINT, PRIMARY KEY(w, d, id)) DISTRIBUTE BY HASH(w)")
	mustExec(t, s, "CREATE TABLE plain (w BIGINT, d BIGINT, id BIGINT, bal BIGINT) DISTRIBUTE BY HASH(w)")
	var vals []string
	for w := 0; w < warehouses; w++ {
		for d := 0; d < 4; d++ {
			for id := 0; id < 10; id++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", w, d, id, (w*7+d*3+id)%5-1))
			}
		}
	}
	for _, tb := range []string{"keyed", "plain"} {
		mustExec(t, s, "INSERT INTO "+tb+" VALUES "+strings.Join(vals, ", "))
	}
	return s
}

// keyBound reports whether the WHERE clause binds keyed's whole primary key.
func keyBound(t *testing.T, c *Cluster, where string) bool {
	t.Helper()
	ti, err := c.tableInfo("keyed")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sqlx.ParseExpr(where)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", where, err)
	}
	return pkBinding(ti, plan.TableScope(ti.Meta, "keyed"), e) != nil
}

// TestKeyBoundDMLMatchesFullScan runs each statement on the keyed and the
// plain twin: row counts, errors and final contents must agree whichever
// path the keyed statement takes.
func TestKeyBoundDMLMatchesFullScan(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupLedger(t, c, 4)
	cases := []struct {
		stmt, where string
		bound       bool
	}{
		{"UPDATE %s SET bal = bal + 10", "w = 1 AND d = 2 AND id = 3", true},
		{"UPDATE %s SET bal = bal + 1", "id = 4 AND d = 1 AND w = 2 AND bal > 0", true},
		{"UPDATE %s SET bal = bal + 1", "id = 0 AND d = 0 AND w = 0 AND bal > 0", true},
		{"UPDATE %s SET bal = bal + 1", "w = 3.0 AND d = 0 AND id = 5", true},
		{"UPDATE %s SET bal = 9", "4 = id AND d = 1 AND w = 1", true},
		{"UPDATE %s SET bal = 1", "w = 1 AND d = 1 AND id = 1 AND id = 2", true},
		// Rewriting a key column files the new version under its new key.
		{"UPDATE %s SET id = 50", "w = 0 AND d = 3 AND id = 2", true},
		{"UPDATE %s SET bal = 77", "w = 0 AND d = 3 AND id = 50", true},
		{"UPDATE %s SET bal = 78", "w = 0 AND d = 3 AND id = 2", true},
		{"UPDATE %s SET bal = 0", "w = 0 AND d = 1", false},
		{"UPDATE %s SET bal = bal * 2", "w = 2 AND d = 2 AND (id = 1 OR id = 2)", false},
		{"UPDATE %s SET bal = bal * 3", "w = 2 AND d = 3 AND id = 1 OR w = 1 AND d = 0 AND id = 6", false},
		{"UPDATE %s SET bal = 5", "w = 1 AND d = 1 AND id = NULL", false},
		{"UPDATE %s SET bal = 5", "w = 1 AND d = 1 AND id = 2.5", true},
		{"DELETE FROM %s", "w = 0 AND d = 0 AND id = 9", true},
		{"DELETE FROM %s", "w = 3 AND d = 3 AND id = 7 AND bal < 0", true},
		{"DELETE FROM %s", "w = 3 AND d = 2 AND id = 6 AND bal < 0", true},
		{"DELETE FROM %s", "w = 2 AND d = 1 AND id = NULL", false},
		{"DELETE FROM %s", "w = 1 AND id = 3", false},
		{"DELETE FROM %s", "bal = 1", false},
		// A literal that cannot compare with the key column binds nothing:
		// the statement behaves exactly as the full scan.
		{"UPDATE %s SET bal = 0", "w = 'x' AND d = 1 AND id = 1", false},
		{"UPDATE %s SET bal = 0", "w = 1 AND d = 1 AND id = 'x'", false},
	}
	for _, tc := range cases {
		if got := keyBound(t, c, tc.where); got != tc.bound {
			t.Errorf("%q: key bound = %v, want %v", tc.where, got, tc.bound)
		}
		var outcome [2]string
		for i, tb := range []string{"keyed", "plain"} {
			res, err := s.Exec(fmt.Sprintf(tc.stmt, tb) + " WHERE " + tc.where)
			if err != nil {
				outcome[i] = "error"
			} else {
				outcome[i] = fmt.Sprintf("%d rows", res.RowsAffected)
			}
		}
		if outcome[0] != outcome[1] {
			t.Errorf("%s WHERE %s: keyed %s, plain %s", tc.stmt, tc.where, outcome[0], outcome[1])
		}
	}
	const all = "SELECT w, d, id, bal FROM %s"
	if got, want := fingerprint(t, s, fmt.Sprintf(all, "keyed")), fingerprint(t, s, fmt.Sprintf(all, "plain")); got != want {
		t.Errorf("keyed and plain diverged:\n keyed: %.200s\n plain: %.200s", got, want)
	}
}

func balanceOf(t *testing.T, s *Session, where string) int64 {
	t.Helper()
	res := mustExec(t, s, "SELECT bal FROM keyed WHERE "+where)
	if len(res.Rows) != 1 {
		t.Fatalf("%s: %d visible rows, want 1", where, len(res.Rows))
	}
	return res.Rows[0][0].Int()
}

// TestKeyBoundUpdateConflictAndTakeover: first-updater-wins holds on the
// key path, and once the first updater aborts its version is taken over.
func TestKeyBoundUpdateConflictAndTakeover(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s1 := setupLedger(t, c, 2)
	s2 := c.NewSession()
	const key = "w = 1 AND d = 2 AND id = 3"
	before := balanceOf(t, s1, key)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE keyed SET bal = bal + 100 WHERE "+key)
	if _, err := s2.Exec("UPDATE keyed SET bal = bal + 1 WHERE " + key); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("concurrent key update: err = %v, want ErrWriteConflict", err)
	}
	mustExec(t, s1, "ROLLBACK")
	if n := mustExec(t, s2, "UPDATE keyed SET bal = bal + 1 WHERE "+key).RowsAffected; n != 1 {
		t.Fatalf("takeover after abort updated %d rows, want 1", n)
	}
	if got := balanceOf(t, s1, key); got != before+1 {
		t.Errorf("balance = %d, want %d", got, before+1)
	}
}

// TestKeyBoundDMLAfterVacuumAndReap: the PK index is rebuilt when Vacuum
// or a bucket move's Reap compacts the heap, so keys still find their row.
func TestKeyBoundDMLAfterVacuumAndReap(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	const warehouses = 16
	s := setupLedger(t, c, warehouses)
	keyOf := func(w int) string { return fmt.Sprintf("w = %d AND d = 1 AND id = 2", w) }
	want := make(map[int]int64)
	for w := 0; w < warehouses; w++ {
		want[w] = balanceOf(t, s, keyOf(w))
	}
	bump := func(w int) {
		t.Helper()
		if n := mustExec(t, s, "UPDATE keyed SET bal = bal + 1 WHERE "+keyOf(w)).RowsAffected; n != 1 {
			t.Fatalf("w=%d: key update affected %d rows, want 1", w, n)
		}
		want[w]++
	}
	for i := 0; i < 3; i++ {
		bump(0)
	}
	mustExec(t, s, "DELETE FROM keyed WHERE w = 5 AND d = 0 AND id = 0")
	if n := c.Vacuum(); n < 4 {
		t.Fatalf("vacuum reclaimed %d versions, want >= 4", n)
	}
	bump(0)

	before := make([]int, warehouses)
	for w := range before {
		before[w] = c.RouteKey(types.NewInt(int64(w)))
	}
	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.ExpansionPlan(id) {
		if _, err := c.MoveBucket(b, id); err != nil {
			t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
		}
	}
	reaped := map[int]bool{} // source nodes that lost a bucket
	moved, stayed := 0, 0
	for w := range before {
		if c.RouteKey(types.NewInt(int64(w))) == id {
			reaped[before[w]] = true
			moved++
		}
	}
	for w := range before {
		if c.RouteKey(types.NewInt(int64(w))) != id && reaped[before[w]] {
			stayed++
		}
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("fixture: %d moved and %d stayed-on-reaped-node warehouses, want both > 0", moved, stayed)
	}
	for w := 0; w < warehouses; w++ {
		bump(w)
		if got := balanceOf(t, s, keyOf(w)); got != want[w] {
			t.Errorf("w=%d: balance %d, want %d", w, got, want[w])
		}
	}
}

// TestKeyBoundUpdateFrozenBucket: a key-bound update into a bucket frozen
// for cutover still fails with ErrBucketMigrating.
func TestKeyBoundUpdateFrozenBucket(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupLedger(t, c, 2)
	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	bucket := c.ExpansionPlan(id)[0]
	w := keyInBucketFrom(bucket, 1000)
	mustExec(t, s, fmt.Sprintf("INSERT INTO keyed VALUES (%d, 0, 0, 0)", w))
	var frozenErr error
	c.MoveHook = func(stage string, b, target int) {
		if stage == "frozen" {
			_, frozenErr = c.NewSession().Exec(fmt.Sprintf("UPDATE keyed SET bal = 1 WHERE w = %d AND d = 0 AND id = 0", w))
		}
	}
	if _, err := c.MoveBucket(bucket, id); err != nil {
		t.Fatalf("MoveBucket: %v", err)
	}
	if !errors.Is(frozenErr, ErrBucketMigrating) {
		t.Fatalf("key update into frozen bucket: err = %v, want ErrBucketMigrating", frozenErr)
	}
}

// TestCompositePKInsert: uniqueness covers the whole composite key.
func TestCompositePKInsert(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupLedger(t, c, 2)
	for _, dup := range []string{"(1, 2, 3, 0)", "(1.0, 2, 3.0, 7)"} {
		if _, err := s.Exec("INSERT INTO keyed VALUES " + dup); !errors.Is(err, storage.ErrDuplicateKey) {
			t.Errorf("INSERT %s: err = %v, want ErrDuplicateKey", dup, err)
		}
	}
	// Keys differing from existing ones only in a later column are new.
	mustExec(t, s, "INSERT INTO keyed VALUES (1, 2, 99, 0)")
	mustExec(t, s, "INSERT INTO keyed VALUES (1, 99, 3, 0)")
	if n := mustExec(t, s, "SELECT bal FROM keyed WHERE w = 1 AND d = 2").Rows; len(n) != 11 {
		t.Errorf("w=1 d=2 holds %d rows, want 11", len(n))
	}
}
