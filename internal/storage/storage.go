// Package storage implements the per-data-node row storage engine of the
// FI-MPPDB reproduction: an MVCC heap with PostgreSQL-style (xmin, xmax)
// tuple stamping, a composite primary-key hash index, predicate scans and
// vacuum.
//
// Visibility is delegated to internal/txnkit so the same heap works under
// purely local snapshots (GTM-lite single-shard fast path) and merged
// snapshots (multi-shard transactions).
package storage

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/txnkit"
	"repro/internal/types"
)

// ErrWriteConflict is returned when a transaction tries to update or delete
// a tuple version already deleted by a concurrent (still unsettled)
// transaction. FI-MPPDB aborts and retries in this case (first-updater
// wins).
var ErrWriteConflict = errors.New("storage: write-write conflict")

// ErrDuplicateKey is returned on primary-key violations.
var ErrDuplicateKey = errors.New("storage: duplicate primary key")

// Tuple is one heap version.
type Tuple struct {
	Xmin txnkit.XID
	Xmax txnkit.XID
	Row  types.Row
}

// Table is an MVCC heap for one table partition on one data node.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema *types.Schema
	heap   []Tuple
	// pkCols are the primary-key column positions; empty means no PK.
	pkCols []int
	// pk is the composite primary-key hash index: keyHash of a version's PK
	// datums -> heap slots. Entries are never removed on update/delete;
	// visibility filtering happens at probe time and Vacuum/Reap rebuild
	// the index. nil when the table has no PK.
	pk  map[uint64][]int
	txm *txnkit.TxnManager
}

// NewTable creates an empty heap bound to the node's transaction manager.
// pkCols may be nil.
func NewTable(name string, schema *types.Schema, pkCols []int, txm *txnkit.TxnManager) *Table {
	t := &Table{name: name, schema: schema, pkCols: pkCols, txm: txm}
	if len(pkCols) > 0 {
		t.pk = make(map[uint64][]int)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Insert appends a new tuple version owned by xid. The snapshot is used for
// primary-key uniqueness checking.
func (t *Table) Insert(xid txnkit.XID, snap *txnkit.Snapshot, row types.Row) error {
	row, err := t.schema.CheckRow(row)
	if err != nil {
		return err
	}
	h := t.rowKeyHash(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil && t.pkExistsLocked(xid, snap, row, h) {
		return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, pkOf(row, t.pkCols))
	}
	t.appendLocked(Tuple{Xmin: xid, Row: row}, h)
	return nil
}

func pkOf(row types.Row, pkCols []int) types.Row {
	out := make(types.Row, len(pkCols))
	for i, c := range pkCols {
		out[i] = row[c]
	}
	return out
}

// keyHashSeed starts a composite key hash (the FNV-1a offset basis).
const keyHashSeed uint64 = 14695981039346656037

// mixKey folds the next primary-key datum into a composite key hash.
// types.Hash is numeric-by-float64, so keys equal under types.Equal hash
// alike (INT 3 and FLOAT 3.0 included).
func mixKey(h uint64, d types.Datum) uint64 {
	return (h ^ types.Hash(d)) * 1099511628211 // FNV-1a prime
}

// keyHash is the PK-index hash of a key given in PK-column order.
func keyHash(key []types.Datum) uint64 {
	h := keyHashSeed
	for _, d := range key {
		h = mixKey(h, d)
	}
	return h
}

// rowKeyHash is keyHash of row's primary-key columns. It reads only the
// immutable pkCols, so Insert calls it before taking the lock.
func (t *Table) rowKeyHash(row types.Row) uint64 {
	h := keyHashSeed
	for _, c := range t.pkCols {
		h = mixKey(h, row[c])
	}
	return h
}

// pkExistsLocked checks whether a visible (or own-uncommitted) tuple with
// the same primary key as row (whose rowKeyHash is h) exists.
func (t *Table) pkExistsLocked(xid txnkit.XID, snap *txnkit.Snapshot, row types.Row, h uint64) bool {
	for _, s := range t.pk[h] {
		tp := &t.heap[s]
		if !t.sameKey(tp.Row, row) {
			continue
		}
		// Visible to us, or inserted by us and not yet deleted by us.
		if t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			return true
		}
	}
	return false
}

func (t *Table) sameKey(a, b types.Row) bool {
	for _, c := range t.pkCols {
		if !types.Equal(a[c], b[c]) {
			return false
		}
	}
	return true
}

// appendLocked adds a version whose rowKeyHash is h.
func (t *Table) appendLocked(tp Tuple, h uint64) {
	if t.pk != nil {
		t.pk[h] = append(t.pk[h], len(t.heap))
	}
	t.heap = append(t.heap, tp)
}

// rebuildIndexLocked re-derives the PK index after heap compaction.
func (t *Table) rebuildIndexLocked() {
	if t.pk == nil {
		return
	}
	t.pk = make(map[uint64][]int, len(t.heap))
	for slot, tp := range t.heap {
		h := t.rowKeyHash(tp.Row)
		t.pk[h] = append(t.pk[h], slot)
	}
}

// Scan calls fn for every tuple version visible to (xid, snap). fn must not
// retain the row. Returning false stops the scan.
func (t *Table) Scan(xid txnkit.XID, snap *txnkit.Snapshot, fn func(row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.heap {
		tp := &t.heap[i]
		if t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			if !fn(tp.Row) {
				return
			}
		}
	}
}

// matchLocked returns the slots of the versions visible to (xid, snap) that
// satisfy pred (nil = all). A nil key, or a table without a PK, scans the
// whole heap. A non-nil key (one datum per PK column, in PK order) visits
// only that key's PK-index bucket; the bucket may also hold dead versions
// and other keys whose hash collides, so pred must itself reject rows whose
// key differs.
func (t *Table) matchLocked(xid txnkit.XID, snap *txnkit.Snapshot, key []types.Datum, pred func(types.Row) bool) []int {
	indexed := key != nil && t.pk != nil
	var slots []int
	n := len(t.heap)
	if indexed {
		slots = t.pk[keyHash(key)]
		n = len(slots)
	}
	var match []int
	for j := 0; j < n; j++ {
		i := j
		if indexed {
			i = slots[j]
		}
		tp := &t.heap[i]
		if !t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			continue
		}
		if pred != nil && !pred(tp.Row) {
			continue
		}
		match = append(match, i)
	}
	return match
}

// Update rewrites every visible tuple matching pred: the old version gets
// xmax=xid, a new version with set(row) applied is appended. key narrows
// the candidates as in matchLocked. It returns the number of updated
// tuples.
func (t *Table) Update(xid txnkit.XID, snap *txnkit.Snapshot, key []types.Datum, pred func(types.Row) bool, set func(types.Row) (types.Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	// Collect first: appending while iterating would rescan new versions.
	for _, i := range t.matchLocked(xid, snap, key, pred) {
		tp := &t.heap[i]
		if err := t.markDeletedLocked(tp, xid); err != nil {
			return n, err
		}
		newRow, err := set(tp.Row.Clone())
		if err != nil {
			return n, err
		}
		newRow, err = t.schema.CheckRow(newRow)
		if err != nil {
			return n, err
		}
		t.appendLocked(Tuple{Xmin: xid, Row: newRow}, t.rowKeyHash(newRow))
		n++
	}
	return n, nil
}

// Delete stamps xmax=xid on every visible tuple matching pred and returns
// the count. key narrows the candidates as in matchLocked.
func (t *Table) Delete(xid txnkit.XID, snap *txnkit.Snapshot, key []types.Datum, pred func(types.Row) bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, i := range t.matchLocked(xid, snap, key, pred) {
		if err := t.markDeletedLocked(&t.heap[i], xid); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// markDeletedLocked sets xmax, enforcing first-updater-wins: if another
// transaction already stamped xmax and has not aborted, that is a conflict.
func (t *Table) markDeletedLocked(tp *Tuple, xid txnkit.XID) error {
	if tp.Xmax != 0 && tp.Xmax != xid {
		switch t.txm.Status(tp.Xmax) {
		case txnkit.StatusAborted:
			// Previous deleter rolled back; we may take over the slot.
		default:
			return fmt.Errorf("%w: table %s tuple held by txn %d", ErrWriteConflict, t.name, tp.Xmax)
		}
	}
	tp.Xmax = xid
	return nil
}

// Vacuum removes versions that can never become visible again: inserted by
// an aborted txn, or deleted by a txn committed before horizon. It rebuilds
// the PK index and returns the number of versions reclaimed.
func (t *Table) Vacuum(horizon txnkit.XID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.heap[:0]
	removed := 0
	for _, tp := range t.heap {
		dead := false
		if t.txm.Status(tp.Xmin) == txnkit.StatusAborted {
			dead = true
		}
		if tp.Xmax != 0 && tp.Xmax < horizon && t.txm.Status(tp.Xmax) == txnkit.StatusCommitted {
			dead = true
		}
		if dead {
			removed++
			continue
		}
		kept = append(kept, tp)
	}
	t.heap = kept
	t.rebuildIndexLocked()
	return removed
}

// UnsettledCount counts heap versions matching pred (nil = all) whose xmin
// or xmax belongs to a transaction that is still active or prepared. The
// rebalancer drains a bucket by polling this to zero: a complete snapshot
// of the bucket exists only once no stamp can still flip.
func (t *Table) UnsettledCount(pred func(types.Row) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	unsettled := func(x txnkit.XID) bool {
		if x == 0 {
			return false
		}
		st := t.txm.Status(x)
		return st == txnkit.StatusActive || st == txnkit.StatusPrepared
	}
	n := 0
	for i := range t.heap {
		tp := &t.heap[i]
		if pred != nil && !pred(tp.Row) {
			continue
		}
		if unsettled(tp.Xmin) || unsettled(tp.Xmax) {
			n++
		}
	}
	return n
}

// Reap physically removes every heap version matching pred, regardless of
// visibility, and rebuilds the PK index. It is the rebalancer's cleanup after
// a bucket cutover (retired source rows) or an aborted move (half-copied
// target rows): at those points the routing map guarantees no snapshot can
// reach the rows. It returns the number of versions removed.
func (t *Table) Reap(pred func(types.Row) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.heap[:0]
	removed := 0
	for _, tp := range t.heap {
		if pred(tp.Row) {
			removed++
			continue
		}
		kept = append(kept, tp)
	}
	if removed == 0 {
		return 0
	}
	t.heap = kept
	t.rebuildIndexLocked()
	return removed
}

// VersionCount reports the raw number of heap versions (visible or not).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.heap)
}

// VisibleCount counts tuples visible to (xid, snap); convenience for tests
// and statistics collection.
func (t *Table) VisibleCount(xid txnkit.XID, snap *txnkit.Snapshot) int {
	n := 0
	t.Scan(xid, snap, func(types.Row) bool { n++; return true })
	return n
}
