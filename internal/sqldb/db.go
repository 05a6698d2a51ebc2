package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"pyxis/internal/val"
)

// Common engine errors.
var (
	ErrNoSuchTable   = errors.New("sqldb: no such table")
	ErrDupKey        = errors.New("sqldb: duplicate primary key")
	ErrNoTransaction = errors.New("sqldb: no transaction in progress")
	ErrInTransaction = errors.New("sqldb: transaction already in progress")
)

// errPlanStale is an engine-internal signal: DDL moved the catalog
// epoch while the statement's latches were not held (before they were
// first taken, or while a lock wait suspended them), so its plan — the
// access paths, and whether an UPDATE may share the table latch — may
// no longer fit the tables. Raised only before the statement has
// changed anything; run binds again and reruns it. Never escapes the
// package.
var errPlanStale = errors.New("sqldb: internal: plan is stale")

// Stats counts engine operations; the benchmark harness reads them to
// charge simulated CPU cost per database operation.
type Stats struct {
	Selects, Inserts, Updates, Deletes int64
	RowsScanned                        int64
}

// statsCounters is the engine-internal, concurrently-updated form of
// Stats.
type statsCounters struct {
	selects, inserts, updates, deletes atomic.Int64
	rowsScanned                        atomic.Int64
}

// DB is an in-memory relational database with sharded concurrency
// control (the latch hierarchy, top to bottom):
//
//  1. catMu guards the table catalog (DDL vs. name lookup);
//  2. each Table has its own structural latch (an RWMutex): statements
//     touching disjoint tables never contend, and non-key updates and
//     readers of the same table share it in read mode (a row-pointer
//     slot is an atomic pointer, so reading one takes no latch);
//  3. the 2PL lock manager (itself stripe-locked) provides transaction
//     isolation, at two granularities: a whole-table read takes its
//     table's S, and a writer takes its table's IX, then the X of each
//     row it writes. Lock waits park with NO latches held — a session
//     suspends its statement latches before waiting and reacquires
//     them (revalidating) afterwards — so a blocked transaction never
//     stalls statements on unrelated data.
//
// Latch order is always catalog → table latches (in ascending table
// name order) → lock-manager stripe → lock-manager graph; acquisitions
// never go up the hierarchy, which makes latch deadlocks impossible.
type DB struct {
	catMu  sync.RWMutex
	tables map[string]*Table

	lm *lockManager

	// epoch counts catalog changes. CREATE TABLE and CREATE INDEX bump
	// it (the latter while still holding the table's exclusive latch),
	// and a bound plan is valid only at the epoch it was bound at: a
	// statement that holds its latches and sees its plan's epoch knows
	// no index has appeared on its tables since the plan was built.
	epoch atomic.Uint64

	// planCache maps SQL text to its immutable parsed statement. A
	// sync.Map fits the workload exactly: written once per distinct
	// statement, then read forever — steady-state lookups take no lock
	// at all, so sessions never contend here (the old RWMutex
	// serialized every statement in the system through one word).
	planCache sync.Map // string → SQLStmt

	nextTxn atomic.Int64
	// nextTable numbers the catalog's tables, under catMu: a table's ID
	// names it in the lock manager.
	nextTable uint32
	stats     statsCounters
}

// Open creates an empty database.
func Open() *DB {
	return &DB{
		tables: map[string]*Table{},
		lm:     newLockManager(),
	}
}

// Stats returns a snapshot of operation counters.
func (db *DB) Stats() Stats {
	return Stats{
		Selects:     db.stats.selects.Load(),
		Inserts:     db.stats.inserts.Load(),
		Updates:     db.stats.updates.Load(),
		Deletes:     db.stats.deletes.Load(),
		RowsScanned: db.stats.rowsScanned.Load(),
	}
}

// Snapshot returns every live row of every table, sorted by primary
// key, keyed by table name. Tests use it to compare database states.
// All table latches are held in read mode for the duration, so the
// snapshot is consistent across tables with respect to structural
// changes (committed transactions' rows; uncommitted rows may appear,
// exactly as a scan would see them).
func (db *DB) Snapshot() map[string][][]val.Value {
	db.catMu.RLock()
	all := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		all = append(all, t)
	}
	db.catMu.RUnlock()
	sortTables(all)
	for _, t := range all {
		t.latch.RLock()
	}
	defer func() {
		for i := len(all) - 1; i >= 0; i-- {
			all[i].latch.RUnlock()
		}
	}()
	out := map[string][][]val.Value{}
	for _, t := range all {
		var rows [][]val.Value
		t.pk.Scan(nil, nil, func(_ []val.Value, slot int) bool {
			if row := t.rowAt(slot); row != nil {
				rows = append(rows, append([]val.Value{}, row...))
			}
			return true
		})
		out[t.name] = rows
	}
	return out
}

// LockWaits returns (waits, deadlocks) counters from the lock manager.
func (db *DB) LockWaits() (int64, int64) {
	return db.lm.Waits(), db.lm.Deadlocks()
}

// Table is one relation: rows are stored in slots; a nil row is a
// tombstone. The primary key and all secondary indexes are B+trees.
//
// Concurrency: latch guards the table's structure — the rows slice
// header and free list, and every B+tree. Statements that may grow the
// slice or touch an index (INSERT, DELETE, key-changing UPDATE, index
// DDL, commit slot recycling, rollback) hold latch exclusively;
// everything else (scans, non-key UPDATEs) holds it shared. A slot
// holds a pointer to its row version's first value, read and written
// atomically, so a reader under the shared latch needs no other latch
// against a non-key UPDATE's setRow. Row versions are immutable once
// published and each has len(cols) values: writers install a fresh
// one, so a reader holding a row always sees a consistent version.
type Table struct {
	name   string
	id     uint32 // catalog number, what the lock manager keys rows by
	cols   []ColumnDef
	colIdx map[string]int
	pkCols []int

	latch sync.RWMutex

	rows []atomic.Pointer[val.Value]
	free []int
	pk   *btree
	idxs []*index
}

type index struct {
	name   string
	cols   []int
	unique bool
	tree   *btree
}

// lockKey builds the lock-manager key for a row slot.
func (t *Table) lockKey(slot int) lockKey {
	return lockKey{table: t.id, slot: uint32(slot)}
}

// tableKey is the lock-manager key for the table as a whole.
func (t *Table) tableKey() lockKey {
	return lockKey{table: t.id, slot: tableSlot}
}

// rowAt reads the row version at slot, nil for a tombstone. The caller
// holds the table latch in at least read mode (it guards the slice
// header); the slot itself is read atomically.
func (t *Table) rowAt(slot int) []val.Value {
	p := t.rows[slot].Load()
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, len(t.cols))
}

// setRow installs row, a fresh version of len(t.cols) values (nil: a
// tombstone), at slot. The caller holds the table latch (either mode)
// and, for slots already published, the row's X lock.
func (t *Table) setRow(slot int, row []val.Value) {
	var p *val.Value
	if row != nil {
		p = &row[0]
	}
	t.rows[slot].Store(p)
}

// NumRows returns the live row count (PK entries), synchronized
// against concurrent writers through the table latch.
func (t *Table) NumRows() int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.pk.Len()
}

// Table returns a table by name, or nil. The handle is only a name
// binding: reads that must be consistent under concurrent writers go
// through methods that take the table latch (NumRows) or through a
// Session.
func (db *DB) Table(name string) *Table {
	return db.lookupTable(normName(name))
}

// lookupTable resolves an already-normalized name under the catalog
// latch.
func (db *DB) lookupTable(name string) *Table {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	return db.tables[name]
}

// sortTables orders a latch set by name — the global latch acquisition
// order that keeps multi-table latching deadlock-free. Latch sets are a
// handful of tables: an insertion sort, no closure, no reflection.
func sortTables(ts []*Table) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].name < ts[j-1].name; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Txn is an in-flight transaction: its ID and bookkeeping lists. A
// session reuses its finished Txn for its next transaction under a
// fresh ID (Session.newTxn).
type Txn struct {
	id int64
	txnLists
	// everWaited: txn enqueued on a lock at least once (written by the
	// owning goroutine under the stripe+graph mutexes; read only by the
	// owning goroutine). Lets abort skip the cancelWaits stripe sweep.
	everWaited bool
}

// txnLists is a transaction's bookkeeping: held locks plus an undo log.
// freed holds slots tombstoned by deletes (recycled at commit, restored
// by rollback); reserved holds slots an insert reserved but never
// published (it lost a duplicate-key race after a lock wait) — they
// stay X-locked until transaction end and are recycled on both paths.
// tables is the latch set commit and rollback build from the other
// three (latchSetOf). A finished transaction keeps its lists, emptied,
// for the session's next one.
type txnLists struct {
	locks    []lockKey
	undo     []undoRec
	freed    []freedSlot
	reserved []freedSlot
	tables   []*Table
}

// txnListKeep is the longest list a Session keeps for its next
// transaction: one transaction that locked thousands of rows through an
// index does not pin that much memory for the session's life.
const txnListKeep = 4096

// empty clears the lists (an undo record pins a row version) and keeps
// their memory.
func (l *txnLists) empty() {
	clear(l.undo)
	clear(l.freed)
	clear(l.reserved)
	clear(l.tables)
	l.locks, l.undo, l.freed, l.reserved, l.tables = l.locks[:0], l.undo[:0], l.freed[:0], l.reserved[:0], l.tables[:0]
}

// keepable returns list, or nil when it is too long to keep.
func keepable[T any](list []T) []T {
	if cap(list) > txnListKeep {
		return nil
	}
	return list
}

type freedSlot struct {
	t    *Table
	slot int
}

type undoKind uint8

const (
	uInsert undoKind = iota
	uUpdate
	uDelete
)

type undoRec struct {
	t      *Table
	kind   undoKind
	slot   int
	before []val.Value
}

// WaitPointFunc supplies a (wait, wake) pair used to block on
// contended locks: wait parks the caller, wake releases it. The
// default uses a channel; the simulator substitutes virtual-time
// parking. The lock manager calls it only when a request is actually
// enqueued, with its own mutexes held: it must build the pair and
// return, never block.
type WaitPointFunc func() (wait func(), wake func())

func chanWaitPoint() (func(), func()) {
	ch := make(chan struct{})
	return func() { <-ch }, func() { close(ch) }
}

// Session is a client connection handle: it owns at most one open
// transaction. Statements executed outside a transaction autocommit.
// A Session is a single logical thread of control — not safe for
// concurrent use; distinct sessions of one DB run fully in parallel.
type Session struct {
	db        *DB
	txn       *Txn
	WaitPoint WaitPointFunc

	// held is the set of table latches the in-flight statement holds
	// (its plan's latch set, sorted by name) and their mode; a row-lock
	// wait suspends these so a parked transaction never blocks
	// unrelated statements.
	held  []*Table
	heldX bool

	// Per-execution scratch, reused from statement to statement (a
	// Session is one thread of control; plans are shared and immutable,
	// so everything an execution writes lives here).
	rows     [][]val.Value // current row of each join level
	slots    [][]int       // candidate, then matched, slots of each join level
	key      []val.Value   // index probe key and range bound keys
	kept     []keptRow     // SELECT: the rows kept for the result (keepRow)
	keys     []val.Value   // SELECT: ORDER BY keys of kept, len(orderBy) each
	arrivals int           // SELECT: join rows offered to the kept set so far

	// proj holds the projections of kept (one value per output column
	// each) at their keptRow.at; an evicted row's is overwritten in place.
	proj []val.Value

	// spare is the session's last finished transaction, its lists
	// emptied, for its next one. A waits-for edge may still name the
	// finished transaction, but by its ID (see lockManager), and the
	// reused Txn takes a fresh one: the stale edge cannot close a cycle
	// through it.
	spare *Txn
}

// NewSession creates a session on db.
func (db *DB) NewSession() *Session {
	return &Session{db: db, WaitPoint: chanWaitPoint}
}

// DB returns the database the session runs against.
func (s *Session) DB() *DB { return s.db }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.txn != nil }

// Begin starts an explicit transaction.
func (s *Session) Begin() error {
	if s.txn != nil {
		return ErrInTransaction
	}
	s.txn = s.newTxn()
	return nil
}

func (db *DB) newTxn() *Txn {
	return &Txn{id: db.nextTxn.Add(1)}
}

// newTxn starts a transaction: the session's spare one, reset under a
// fresh ID, or a new one.
func (s *Session) newTxn() *Txn {
	t := s.spare
	if t == nil {
		return s.db.newTxn()
	}
	s.spare = nil
	*t = Txn{id: s.db.nextTxn.Add(1), txnLists: t.txnLists}
	return t
}

// recycle keeps txn, which this session finished (commit and rollback
// empty its lists), for its next transaction.
func (s *Session) recycle(txn *Txn) {
	l := &txn.txnLists
	*l = txnLists{keepable(l.locks), keepable(l.undo), keepable(l.freed), keepable(l.reserved), keepable(l.tables)}
	s.spare = txn
}

// Commit commits the open transaction, releasing its locks.
func (s *Session) Commit() error {
	if s.txn == nil {
		return ErrNoTransaction
	}
	s.db.commit(s.txn)
	s.recycle(s.txn)
	s.txn = nil
	return nil
}

// Rollback aborts the open transaction, undoing its effects.
func (s *Session) Rollback() error {
	if s.txn == nil {
		return ErrNoTransaction
	}
	s.db.rollback(s.txn)
	s.recycle(s.txn)
	s.txn = nil
	return nil
}

// latchSetOf collects the distinct tables referenced by txn's physical
// records (undo log, freed and reserved slots), in latch order, into
// txn.tables. A transaction touches a handful of tables, so a linear
// search dedupes them.
func latchSetOf(txn *Txn) []*Table {
	ts := txn.tables[:0]
	for _, u := range txn.undo {
		ts = addTable(ts, u.t)
	}
	for _, f := range txn.freed {
		ts = addTable(ts, f.t)
	}
	for _, f := range txn.reserved {
		ts = addTable(ts, f.t)
	}
	sortTables(ts)
	txn.tables = ts
	return ts
}

// addTable appends t to ts unless ts holds it.
func addTable(ts []*Table, t *Table) []*Table {
	if slices.Contains(ts, t) {
		return ts
	}
	return append(ts, t)
}

func latchAllW(ts []*Table) {
	for _, t := range ts {
		t.latch.Lock()
	}
}

func unlatchAllW(ts []*Table) {
	for i := len(ts) - 1; i >= 0; i-- {
		ts[i].latch.Unlock()
	}
}

// commit finalizes txn: recycle slots freed by its deletes and slots
// reserved by duplicate-losing inserts (under the owning tables'
// latches), then release its locks.
func (db *DB) commit(txn *Txn) {
	if len(txn.freed) > 0 || len(txn.reserved) > 0 {
		// Only the freed/reserved tables need latching here, but the
		// full latch set is tiny and already deduplicated/sorted.
		ts := latchSetOf(txn)
		latchAllW(ts)
		for _, f := range txn.freed {
			f.t.setRow(f.slot, nil)
			f.t.free = append(f.t.free, f.slot)
		}
		for _, f := range txn.reserved {
			f.t.free = append(f.t.free, f.slot)
		}
		unlatchAllW(ts)
	}
	db.lm.releaseAll(txn)
	txn.empty()
}

// rollback undoes txn's changes in reverse order, holding the
// exclusive latch of every table its undo log touches (physical undo
// restores rows AND index entries), then releases its locks.
func (db *DB) rollback(txn *Txn) {
	if len(txn.undo) > 0 || len(txn.reserved) > 0 {
		ts := latchSetOf(txn)
		latchAllW(ts)
		for i := len(txn.undo) - 1; i >= 0; i-- {
			u := txn.undo[i]
			switch u.kind {
			case uInsert:
				u.t.dropFromIndexes(u.t.rowAt(u.slot), u.slot)
				u.t.setRow(u.slot, nil)
				u.t.free = append(u.t.free, u.slot)
			case uUpdate:
				u.t.dropFromIndexes(u.t.rowAt(u.slot), u.slot)
				u.t.setRow(u.slot, u.before)
				u.t.addToIndexes(u.before, u.slot)
			case uDelete:
				u.t.setRow(u.slot, u.before)
				u.t.addToIndexes(u.before, u.slot)
			}
		}
		// Slots tombstoned by deletes were restored by the undo pass
		// (txn.freed needs no action), but never-published insert
		// reservations must be recycled or they leak as permanent
		// tombstones.
		for _, f := range txn.reserved {
			f.t.free = append(f.t.free, f.slot)
		}
		unlatchAllW(ts)
	}
	db.lm.cancelWaits(txn)
	db.lm.releaseAll(txn)
	txn.empty()
}

// appendKey appends row's index key over cols to dst: the column
// values, plus the slot for a non-unique index (it disambiguates
// duplicates).
func appendKey(dst []val.Value, cols []int, row []val.Value, slot int, unique bool) []val.Value {
	for _, c := range cols {
		dst = append(dst, row[c])
	}
	if !unique {
		dst = append(dst, val.IntV(int64(slot)))
	}
	return dst
}

// addToIndexes enters row, at slot, into every index of t.
func (t *Table) addToIndexes(row []val.Value, slot int) {
	var buf [8]val.Value
	t.pk.Insert(appendKey(buf[:0], t.pkCols, row, slot, true), slot)
	t.addToSecondaries(row, slot)
}

// addToSecondaries enters row, at slot, into t's secondary indexes.
// Insert copies each key into its tree, so they are built on the stack.
func (t *Table) addToSecondaries(row []val.Value, slot int) {
	var buf [8]val.Value
	for _, ix := range t.idxs {
		ix.tree.Insert(appendKey(buf[:0], ix.cols, row, slot, ix.unique), slot)
	}
}

func (t *Table) dropFromIndexes(row []val.Value, slot int) {
	// Delete does not keep its key: build each on the stack.
	var buf [8]val.Value
	t.pk.Delete(appendKey(buf[:0], t.pkCols, row, slot, true))
	for _, ix := range t.idxs {
		ix.tree.Delete(appendKey(buf[:0], ix.cols, row, slot, ix.unique))
	}
}

// latch acquires the statement's table latches — ts is a plan's latch
// set, already deduplicated and in name order — and records them so
// acquireLock can suspend them across a lock wait.
func (s *Session) latch(ts []*Table, write bool) {
	s.held = ts
	s.heldX = write
	s.lockHeld()
}

func (s *Session) lockHeld() {
	for _, t := range s.held {
		if s.heldX {
			t.latch.Lock()
		} else {
			t.latch.RLock()
		}
	}
}

func (s *Session) unlockHeld() {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.heldX {
			s.held[i].latch.Unlock()
		} else {
			s.held[i].latch.RUnlock()
		}
	}
}

// unlatch releases the statement's latches at statement end.
func (s *Session) unlatch() {
	s.unlockHeld()
	s.held = nil
	s.heldX = false
}

// acquireLock blocks (via the session's wait point) until txn holds
// key at mode, or returns ErrDeadlock. If the lock is contended, the
// statement's table latches are suspended for the duration of the wait
// (a parked transaction must not stall statements on other data) and
// reacquired afterwards — waited reports that, and callers then
// revalidate whatever the latch protected.
func (s *Session) acquireLock(txn *Txn, key lockKey, mode LockMode) (waited bool, err error) {
	wait, err := s.db.lm.acquire(txn, key, mode, s.WaitPoint)
	if wait == nil {
		return false, err
	}
	s.unlockHeld()
	wait()
	s.lockHeld()
	return true, nil
}

// parse returns a cached parse of sql. Parsed statements are immutable
// and shared across sessions. Concurrent first touches may both parse,
// but LoadOrStore guarantees every caller converges on one shared
// statement object.
func (db *DB) parse(sql string) (SQLStmt, error) {
	if st, ok := db.planCache.Load(sql); ok {
		return st.(SQLStmt), nil
	}
	st, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	actual, _ := db.planCache.LoadOrStore(sql, st)
	return actual.(SQLStmt), nil
}

// ResultSet is the result of a query: column names plus rows. Its rows
// are windows of value memory it owns, so a ResultSet filled again —
// by Session.QueryInto, or by a decoder through Reset and NewRow —
// allocates nothing its earlier contents already made room for.
type ResultSet struct {
	Cols []string
	Rows [][]val.Value
	vals []val.Value // backs Rows
}

// resultKeep is the most values a ResultSet keeps through Reset: one
// large result does not pin its memory for its owner's life.
const resultKeep = 1 << 12

// Reset empties rs for a new result and keeps its memory. Its values
// go through val.Released, so a row of the old result that someone
// still holds reads zeros (garbage under val.ScribbleReleased). Cols
// stays: a decoder passes it to rpc.Reader.Strs, which keeps it when
// the new result has the same columns.
func (rs *ResultSet) Reset() {
	val.Released(rs.vals)
	clear(rs.Rows)
	rs.vals, rs.Rows = rs.vals[:0], rs.Rows[:0]
	if cap(rs.vals) > resultKeep || cap(rs.Rows) > resultKeep {
		rs.vals, rs.Rows = nil, nil
	}
}

// Reserve makes room for rows more rows of vals values in all, so that
// they share one allocation.
func (rs *ResultSet) Reserve(rows, vals int) {
	rs.Rows = slices.Grow(rs.Rows, rows)
	rs.vals = slices.Grow(rs.vals, vals)
}

// NewRow appends a row of n values to rs and returns it; the caller
// writes every value.
func (rs *ResultSet) NewRow(n int) []val.Value {
	at := len(rs.vals)
	rs.vals = slices.Grow(rs.vals, n)[:at+n]
	row := rs.vals[at : at+n : at+n]
	rs.Rows = append(rs.Rows, row)
	return row
}

// Size is the profiler's estimate of the bytes the result set costs a
// data edge: val.Size summed over its cells, plus each column name. It
// is not what the table takes on the wire, which is smaller; the
// placements the partitioner makes depend on its numbers, which stay.
func (r *ResultSet) Size() int {
	n := 0
	for _, c := range r.Cols {
		n += len(c) + 5
	}
	for _, row := range r.Rows {
		n += val.SizeOfRow(row)
	}
	return n
}

// Prepare parses sql once (through the shared plan cache) and returns
// the immutable statement for repeated execution via ExecParsed /
// QueryParsed — the server half of the prepared-statement wire. The
// statement carries its bound plan from its first execution on.
func (s *Session) Prepare(sql string) (SQLStmt, error) { return s.db.parse(sql) }

// Exec runs a DDL or DML statement. It returns the number of rows
// affected. Outside an explicit transaction the statement autocommits.
func (s *Session) Exec(sql string, args ...val.Value) (int, error) {
	st, err := s.db.parse(sql)
	if err != nil {
		return 0, err
	}
	return s.ExecParsed(st, args...)
}

// ExecParsed is Exec on a pre-parsed statement, skipping the plan
// cache entirely.
func (s *Session) ExecParsed(st SQLStmt, args ...val.Value) (int, error) {
	switch t := st.(type) {
	case *CreateTableStmt:
		return 0, s.db.createTable(t)
	case *CreateIndexStmt:
		return 0, s.db.createIndex(t)
	case *SelectStmt:
		return 0, fmt.Errorf("sqldb: Exec cannot run SELECT; use Query")
	case dmlStmt:
		return s.run(t, args, nil)
	}
	return 0, fmt.Errorf("sqldb: unsupported statement %T", st)
}

// Query runs a SELECT and returns its result set.
func (s *Session) Query(sql string, args ...val.Value) (*ResultSet, error) {
	st, err := s.db.parse(sql)
	if err != nil {
		return nil, err
	}
	return s.QueryParsed(st, args...)
}

// QueryParsed is Query on a pre-parsed statement.
func (s *Session) QueryParsed(st SQLStmt, args ...val.Value) (*ResultSet, error) {
	rs := new(ResultSet)
	if err := s.QueryInto(rs, st, args...); err != nil {
		return nil, err
	}
	return rs, nil
}

// QueryInto is QueryParsed writing the result into rs, which it Resets
// first: a caller that owns rs and reuses it from query to query keeps
// its memory. On error rs is empty.
func (s *Session) QueryInto(rs *ResultSet, st SQLStmt, args ...val.Value) error {
	rs.Reset()
	sel, ok := st.(*SelectStmt)
	if !ok {
		return fmt.Errorf("sqldb: Query requires SELECT, got %T", st)
	}
	_, err := s.run(sel, args, rs)
	return err
}

// run executes one DML statement: bind (or reuse the statement's plan),
// latch, execute, unlatch, and finish the autocommit transaction. The
// plan is checked against the catalog epoch once its latches are held;
// from there on no index can appear on its tables until a lock wait
// suspends the latches, and matchRows rechecks after every wait. A
// SELECT writes its result into rs.
func (s *Session) run(st dmlStmt, args []val.Value, rs *ResultSet) (n int, err error) {
	p, err := s.plan(st)
	if err != nil {
		return 0, err
	}
	txn, auto := s.currentTxn()
	for {
		s.latch(p.latches, p.latchX)
		if s.db.epoch.Load() != p.epoch {
			err = errPlanStale
		} else {
			n, err = s.exec(txn, p, args, rs)
		}
		s.unlatch()
		if !errors.Is(err, errPlanStale) {
			break
		}
		// Nothing was changed; row locks taken so far stay with txn.
		if p, err = s.plan(st); err != nil {
			break
		}
	}
	s.finishAuto(txn, auto, err)
	return n, err
}

// currentTxn returns the session transaction or a fresh autocommit one.
func (s *Session) currentTxn() (*Txn, bool) {
	if s.txn != nil {
		return s.txn, false
	}
	return s.newTxn(), true
}

// finishAuto commits or rolls back an autocommit transaction. Called
// with no statement latches held (commit/rollback take their own).
func (s *Session) finishAuto(txn *Txn, auto bool, err error) {
	if !auto {
		if err != nil && errors.Is(err, ErrDeadlock) {
			// Deadlock aborts the whole transaction (MySQL semantics).
			s.db.rollback(txn)
			s.recycle(txn)
			s.txn = nil
		}
		return
	}
	if err != nil {
		s.db.rollback(txn)
	} else {
		s.db.commit(txn)
	}
	s.recycle(txn)
}

func normName(s string) string {
	// Identifiers are case-insensitive; the lexer upper-cases them.
	up := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return string(up)
}

func (db *DB) createTable(st *CreateTableStmt) error {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if _, exists := db.tables[st.Table]; exists {
		return fmt.Errorf("sqldb: table %s already exists", st.Table)
	}
	if len(st.PK) == 0 {
		return fmt.Errorf("sqldb: table %s requires a PRIMARY KEY", st.Table)
	}
	db.nextTable++
	t := &Table{
		name:   st.Table,
		id:     db.nextTable,
		cols:   st.Cols,
		colIdx: map[string]int{},
	}
	for i, c := range st.Cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return fmt.Errorf("sqldb: duplicate column %s.%s", st.Table, c.Name)
		}
		t.colIdx[c.Name] = i
	}
	for _, pkc := range st.PK {
		ci, ok := t.colIdx[pkc]
		if !ok {
			return fmt.Errorf("sqldb: primary key column %s not in table %s", pkc, st.Table)
		}
		t.pkCols = append(t.pkCols, ci)
	}
	t.pk = newBTree(len(t.pkCols))
	db.tables[st.Table] = t
	db.epoch.Add(1)
	return nil
}

func (db *DB) createIndex(st *CreateIndexStmt) error {
	t := db.lookupTable(st.Table)
	if t == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, st.Table)
	}
	ix := &index{name: st.Name, unique: st.Unique}
	for _, cn := range st.Cols {
		ci, ok := t.colIdx[cn]
		if !ok {
			return fmt.Errorf("sqldb: index column %s not in table %s", cn, st.Table)
		}
		ix.cols = append(ix.cols, ci)
	}
	width := len(ix.cols)
	if !ix.unique {
		width++ // the slot
	}
	ix.tree = newBTree(width)
	t.latch.Lock()
	defer t.latch.Unlock()
	var buf [8]val.Value
	for slot := range t.rows {
		if row := t.rowAt(slot); row != nil {
			ix.tree.Insert(appendKey(buf[:0], ix.cols, row, slot, ix.unique), slot)
		}
	}
	t.idxs = append(t.idxs, ix)
	// Bumped before the latch is released: whoever latches t next and
	// still sees its plan's epoch was bound with this index in view.
	db.epoch.Add(1)
	return nil
}

// coerceCol converts v to the column type, or errors.
func coerceCol(v val.Value, ct ColType) (val.Value, error) {
	if v.K == val.Null {
		return v, nil
	}
	switch ct {
	case CInt:
		if v.K == val.Int {
			return v, nil
		}
		if v.K == val.Double {
			return val.IntV(int64(v.F)), nil
		}
	case CDouble:
		if v.K == val.Double {
			return v, nil
		}
		if v.K == val.Int {
			return val.DoubleV(float64(v.I)), nil
		}
	case CString:
		if v.K == val.Str {
			return v, nil
		}
	case CBool:
		if v.K == val.Bool {
			return v, nil
		}
	}
	return val.Value{}, fmt.Errorf("sqldb: cannot store %s into %s column", v.K, ct)
}
