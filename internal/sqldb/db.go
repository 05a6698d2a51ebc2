package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pyxis/internal/val"
)

// Common engine errors.
var (
	ErrNoSuchTable   = errors.New("sqldb: no such table")
	ErrDupKey        = errors.New("sqldb: duplicate primary key")
	ErrTxnAborted    = errors.New("sqldb: transaction aborted")
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
//     touching disjoint tables never contend;
//  3. row-pointer slots are striped under per-table row latches, so
//     non-key updates and readers of the same table share the table
//     latch in read mode and only serialize per stripe;
//  4. the 2PL lock manager (itself stripe-locked) provides transaction
//     isolation; lock waits park with NO latches held — a session
//     suspends its statement latches before waiting and reacquires
//     them (revalidating) afterwards — so a blocked transaction never
//     stalls statements on unrelated data.
//
// Latch order is always catalog → table latches (in ascending table
// name order) → row stripe → lock-manager stripe → lock-manager graph;
// acquisitions never go up the hierarchy, which makes latch deadlocks
// impossible.
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
	stats   statsCounters

	// fence is the live-migration fence plane (see fence.go): at most
	// one armed range fence plus the moved-out tombstones. Statements
	// consult it with two atomic loads before taking any latch.
	fence fenceControl
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

// rowStripeCount stripes each table's row-pointer slots; power of two
// for cheap masking.
const rowStripeCount = 64

// Table is one relation: rows are stored in slots; a nil row is a
// tombstone. The primary key and all secondary indexes are B+trees.
//
// Concurrency: latch guards the table's structure — the rows slice
// header and free list, and every B+tree. Statements that may grow the
// slice or touch an index (INSERT, DELETE, key-changing UPDATE, index
// DDL, commit slot recycling, rollback) hold latch exclusively;
// everything else (scans, non-key UPDATEs) holds it shared and
// arbitrates individual row-pointer slots through rowLatch stripes.
// Row value slices are immutable once published: writers install a
// fresh slice via setRow, so a reader holding a row pointer always
// sees a consistent version.
type Table struct {
	name     string
	nameHash uint32 // FNV-1a of name, for lock-stripe selection
	cols     []ColumnDef
	colIdx   map[string]int
	pkCols   []int

	latch    sync.RWMutex
	rowLatch [rowStripeCount]sync.RWMutex

	rows [][]val.Value
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

// lockKey builds the lock-manager key for a row slot, carrying the
// table's precomputed hash so the per-lock hot path never re-hashes
// the name.
func (t *Table) lockKey(slot int) lockKey {
	return lockKey{table: t.name, slot: slot, h: t.nameHash}
}

// rowAt reads the row pointer at slot. The caller holds the table
// latch in at least read mode; the stripe synchronizes the element
// against concurrent setRow from other read-latched sessions.
func (t *Table) rowAt(slot int) []val.Value {
	l := &t.rowLatch[slot&(rowStripeCount-1)]
	l.RLock()
	row := t.rows[slot]
	l.RUnlock()
	return row
}

// setRow installs a new row version at slot under its stripe latch.
// The caller holds the table latch (either mode) and, for slots
// already published, the row's X lock.
func (t *Table) setRow(slot int, row []val.Value) {
	l := &t.rowLatch[slot&(rowStripeCount-1)]
	l.Lock()
	t.rows[slot] = row
	l.Unlock()
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

// Txn is an in-flight transaction: held locks plus an undo log. freed
// holds slots tombstoned by deletes (recycled at commit, restored by
// rollback); reserved holds slots an insert reserved but never
// published (it lost a duplicate-key race after a lock wait) — they
// stay X-locked until transaction end and are recycled on both paths.
type Txn struct {
	id       int64
	locks    []lockKey
	undo     []undoRec
	freed    []freedSlot
	reserved []freedSlot
	aborted  bool
	// everWaited: txn enqueued on a lock at least once (written by the
	// owning goroutine under the stripe+graph mutexes; read only by the
	// owning goroutine). Lets abort skip the cancelWaits stripe sweep.
	everWaited bool
	// prepared: txn is in the 2PC in-doubt window (see twopc.go). It
	// holds its locks past the statement boundary and never requests new
	// ones, so it can never appear in a waits-for cycle — deadlock
	// victims are always the requester, never a prepared txn.
	prepared bool
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

	// fenceTok, when non-zero, exempts this session from the armed
	// migration fence carrying the same token (see AdoptFence).
	fenceTok uint64
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
	s.txn = s.db.newTxn()
	return nil
}

func (db *DB) newTxn() *Txn {
	return &Txn{id: db.nextTxn.Add(1)}
}

// Commit commits the open transaction, releasing its locks.
func (s *Session) Commit() error {
	if s.txn == nil {
		return ErrNoTransaction
	}
	s.db.commit(s.txn)
	s.txn = nil
	return nil
}

// Rollback aborts the open transaction, undoing its effects.
func (s *Session) Rollback() error {
	if s.txn == nil {
		return ErrNoTransaction
	}
	s.db.rollback(s.txn)
	s.txn = nil
	return nil
}

// latchSetOf collects the distinct tables referenced by txn's physical
// records (undo log and freed slots), in latch order.
func latchSetOf(txn *Txn) []*Table {
	seen := map[*Table]bool{}
	var ts []*Table
	for _, u := range txn.undo {
		if !seen[u.t] {
			seen[u.t] = true
			ts = append(ts, u.t)
		}
	}
	for _, f := range txn.freed {
		if !seen[f.t] {
			seen[f.t] = true
			ts = append(ts, f.t)
		}
	}
	for _, f := range txn.reserved {
		if !seen[f.t] {
			seen[f.t] = true
			ts = append(ts, f.t)
		}
	}
	sortTables(ts)
	return ts
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
			f.t.rows[f.slot] = nil
			f.t.free = append(f.t.free, f.slot)
		}
		for _, f := range txn.reserved {
			f.t.free = append(f.t.free, f.slot)
		}
		unlatchAllW(ts)
	}
	db.lm.releaseAll(txn)
	txn.undo = nil
	txn.freed = nil
	txn.reserved = nil
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
				u.t.dropFromIndexes(u.t.rows[u.slot], u.slot)
				u.t.rows[u.slot] = nil
				u.t.free = append(u.t.free, u.slot)
			case uUpdate:
				u.t.dropFromIndexes(u.t.rows[u.slot], u.slot)
				u.t.rows[u.slot] = u.before
				u.t.addToIndexes(u.before, u.slot)
			case uDelete:
				u.t.rows[u.slot] = u.before
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
	txn.undo = nil
	txn.freed = nil
	txn.reserved = nil
	txn.aborted = true
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

// keyFor builds the key an index stores for row.
func keyFor(cols []int, row []val.Value, slot int, unique bool) []val.Value {
	return appendKey(make([]val.Value, 0, len(cols)+1), cols, row, slot, unique)
}

func (t *Table) addToIndexes(row []val.Value, slot int) {
	t.pk.Insert(keyFor(t.pkCols, row, slot, true), slot)
	for _, ix := range t.idxs {
		ix.tree.Insert(keyFor(ix.cols, row, slot, ix.unique), slot)
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

// ResultSet is the result of a query: column names plus rows.
type ResultSet struct {
	Cols []string
	Rows [][]val.Value
}

// Size estimates the wire size of the result set in bytes.
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
	case *CreateTableStmt: // DDL names no key: the migration fence never applies
		return 0, s.db.createTable(t)
	case *CreateIndexStmt:
		return 0, s.db.createIndex(t)
	case *SelectStmt:
		return 0, fmt.Errorf("sqldb: Exec cannot run SELECT; use Query")
	case dmlStmt:
		n, _, err := s.run(t, args)
		return n, err
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
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires SELECT, got %T", st)
	}
	_, rs, err := s.run(sel, args)
	return rs, err
}

// run executes one DML statement: fence check, bind (or reuse the
// statement's plan), latch, execute, unlatch, and finish the autocommit
// transaction. The plan is checked against the catalog epoch once its
// latches are held; from there on no index can appear on its tables
// until a lock wait suspends the latches, and matchRows rechecks after
// every wait.
func (s *Session) run(st dmlStmt, args []val.Value) (n int, rs *ResultSet, err error) {
	if err := s.fenceGate(st, args); err != nil {
		return 0, nil, err
	}
	p, err := s.plan(st)
	if err != nil {
		return 0, nil, err
	}
	txn, auto := s.currentTxn()
	for {
		s.latch(p.latches, p.latchX)
		if s.db.epoch.Load() != p.epoch {
			err = errPlanStale
		} else {
			n, rs, err = s.exec(txn, p, args)
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
	return n, rs, err
}

// currentTxn returns the session transaction or a fresh autocommit one.
func (s *Session) currentTxn() (*Txn, bool) {
	if s.txn != nil {
		return s.txn, false
	}
	return s.db.newTxn(), true
}

// finishAuto commits or rolls back an autocommit transaction. Called
// with no statement latches held (commit/rollback take their own).
func (s *Session) finishAuto(txn *Txn, auto bool, err error) {
	if !auto {
		if err != nil && errors.Is(err, ErrDeadlock) {
			// Deadlock aborts the whole transaction (MySQL semantics).
			s.db.rollback(txn)
			s.txn = nil
		}
		return
	}
	if err != nil {
		s.db.rollback(txn)
	} else {
		s.db.commit(txn)
	}
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
	t := &Table{
		name:     st.Table,
		nameHash: fnv32(st.Table),
		cols:     st.Cols,
		colIdx:   map[string]int{},
		pk:       newBTree(),
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
	db.tables[st.Table] = t
	db.epoch.Add(1)
	return nil
}

func (db *DB) createIndex(st *CreateIndexStmt) error {
	t := db.lookupTable(st.Table)
	if t == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, st.Table)
	}
	ix := &index{name: st.Name, unique: st.Unique, tree: newBTree()}
	for _, cn := range st.Cols {
		ci, ok := t.colIdx[cn]
		if !ok {
			return fmt.Errorf("sqldb: index column %s not in table %s", cn, st.Table)
		}
		ix.cols = append(ix.cols, ci)
	}
	t.latch.Lock()
	defer t.latch.Unlock()
	for slot, row := range t.rows {
		if row != nil {
			ix.tree.Insert(keyFor(ix.cols, row, slot, ix.unique), slot)
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
