package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDeadlock is returned when granting a lock would create a cycle in
// the wait-for graph. The requesting transaction should abort.
var ErrDeadlock = errors.New("sqldb: deadlock detected")

// LockMode is a lock's strength. A row takes S (reads) or X (writes).
// A table takes S for a whole-table read, IX before any of its rows is
// written, and SIX when one transaction does both: the multi-granularity
// modes of Gray et al., "Granularity of Locks" (1976), less IS, since
// nothing takes a table's X.
type LockMode uint8

const (
	LockS LockMode = iota
	LockX
	LockIX
	LockSIX
)

func (m LockMode) String() string {
	return [...]string{LockS: "S", LockX: "X", LockIX: "IX", LockSIX: "SIX"}[m]
}

// compatible reports whether two transactions may hold one key at a
// and b: S shares only with S, and IX only with IX.
func compatible(a, b LockMode) bool {
	return a == b && (a == LockS || a == LockIX)
}

// join is the weakest mode that covers both a and b: S and IX join to
// SIX, and X covers everything.
func join(a, b LockMode) LockMode {
	switch {
	case a == b:
		return a
	case a == LockX || b == LockX:
		return LockX
	}
	return LockSIX
}

// covers reports whether holding held already grants want.
func covers(held, want LockMode) bool { return join(held, want) == held }

// lockKey identifies a lockable resource: a row slot within a table,
// named by its catalog ID, or the table itself (slot tableSlot). Eight
// bytes of plain memory, so the lock table's maps take Go's 64-bit fast
// path and neither they nor the stripe choice ever hash a string. (An
// in-memory table never reaches 2^32-1 row slots: each row is tens of
// bytes.)
type lockKey struct {
	table uint32
	slot  uint32
}

// tableSlot is the slot of a table's own lock key.
const tableSlot = 1<<32 - 1

func (k lockKey) String() string { return fmt.Sprintf("table#%d[%d]", k.table, k.slot) }

type lockWaiter struct {
	txn  *Txn
	mode LockMode
	wake func() // invoked (under the key's stripe mutex) when the lock is granted
}

type lockHolder struct {
	txn  *Txn
	mode LockMode
}

// lockInlineHolders is how many holders a lockState stores without a
// heap-allocated slice: one writer, or the two readers a pair of
// sessions sharing a row produce.
const lockInlineHolders = 2

// lockState is one key's holders and FIFO wait queue. States are
// recycled through their stripe's freelist, so the uncontended
// acquire/release cycle allocates nothing; a state is never copied
// (holders may point into its own inline array).
type lockState struct {
	holders []lockHolder // starts as inline[:0]; spills to the heap past lockInlineHolders
	queue   []lockWaiter
	inline  [lockInlineHolders]lockHolder
	next    *lockState // freelist link
}

// holder returns txn's entry among ls's holders, or nil.
func (ls *lockState) holder(txn *Txn) *lockHolder {
	for i := range ls.holders {
		if ls.holders[i].txn == txn {
			return &ls.holders[i]
		}
	}
	return nil
}

func (ls *lockState) dropHolder(txn *Txn) {
	for i := range ls.holders {
		if ls.holders[i].txn == txn {
			last := len(ls.holders) - 1
			ls.holders[i] = ls.holders[last]
			ls.holders[last] = lockHolder{}
			ls.holders = ls.holders[:last]
			return
		}
	}
}

// grantable reports whether txn may take ls at mode given the other
// holders. txn's own mode is compatible with theirs already, and a mode
// compatible with both is compatible with their join, so checking mode
// alone also decides an upgrade.
func (ls *lockState) grantable(txn *Txn, mode LockMode) bool {
	for i := range ls.holders {
		if h := &ls.holders[i]; h.txn != txn && !compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// dequeue removes queue[i], keeping FIFO order and the slice's
// capacity.
func (ls *lockState) dequeue(i int) {
	last := len(ls.queue) - 1
	copy(ls.queue[i:], ls.queue[i+1:])
	ls.queue[last] = lockWaiter{}
	ls.queue = ls.queue[:last]
}

// lockStripeCount stripes the lock table so uncontended acquisitions on
// different rows don't serialize on one mutex. Power of two for cheap
// masking.
const lockStripeCount = 64

// lockFreeMax bounds each stripe's freelist, so one huge scan does not
// pin a lockState per row it touched for the life of the database.
const lockFreeMax = 256

type lockStripe struct {
	mu    sync.Mutex
	locks map[lockKey]*lockState
	// free is the stripe's freelist of idle lockStates (no holders, no
	// waiters), guarded by mu like the map.
	free  *lockState
	nfree int
}

// state returns key's lockState, taking one off the freelist (or
// allocating) on first use. Caller holds st.mu.
func (st *lockStripe) state(key lockKey) *lockState {
	ls := st.locks[key]
	if ls == nil {
		if ls = st.free; ls != nil {
			st.free, ls.next = ls.next, nil
			st.nfree--
		} else {
			ls = &lockState{}
			ls.holders = ls.inline[:0]
		}
		st.locks[key] = ls
	}
	return ls
}

// retire unmaps key and recycles its state once nothing holds or
// awaits it. Caller holds st.mu.
func (st *lockStripe) retire(key lockKey, ls *lockState) {
	if len(ls.holders) > 0 || len(ls.queue) > 0 {
		return
	}
	delete(st.locks, key)
	if st.nfree < lockFreeMax {
		ls.next, st.free = st.free, ls
		st.nfree++
	}
}

// lockManager implements strict two-phase locking with striped internal
// synchronization: the lock table is sharded over lockStripeCount
// mutexes (the uncontended fast path touches exactly one), while the
// waits-for graph used for deadlock detection lives behind a single
// graph mutex taken only on the slow (conflict) path. Lock ordering is
// always stripe.mu before graphMu, never the reverse.
//
// Waiting is externalized through wake callbacks so both real
// goroutines (channel close) and the discrete-event simulator
// (virtual-time wakeup) can block on locks; acquire never parks the
// caller itself and never blocks while holding caller-visible state.
//
// Consistency note for deadlock detection: a waiter's edges are
// inserted and removed under graphMu while its key's stripe mutex is
// held, and a grant updates holders and removes the waiter's edges in
// one such critical section. Because locks are strict (released only at
// transaction end, by releaseAll) a stale edge can only point at a
// finished transaction, which never re-enters the graph — so cycle
// checks cannot report false deadlocks. The graph names transactions by
// ID, not by *Txn: a session reuses its finished Txn for its next
// transaction (Session.newTxn), but under a fresh ID from db.nextTxn,
// and no ID is handed out twice.
type lockManager struct {
	stripes [lockStripeCount]lockStripe

	graphMu sync.Mutex
	// waitsFor edges: waiting txn's ID -> set of IDs it waits on.
	waitsFor map[int64]map[int64]bool

	// stats
	waits     atomic.Int64
	deadlocks atomic.Int64
}

func newLockManager() *lockManager {
	lm := &lockManager{waitsFor: map[int64]map[int64]bool{}}
	for i := range lm.stripes {
		lm.stripes[i].locks = map[lockKey]*lockState{}
	}
	return lm
}

// Waits and Deadlocks snapshot the contention counters.
func (lm *lockManager) Waits() int64     { return lm.waits.Load() }
func (lm *lockManager) Deadlocks() int64 { return lm.deadlocks.Load() }

// stripeFor maps a key to its stripe: the table ID, spread by a
// multiplicative hash, mixed with the slot.
func (lm *lockManager) stripeFor(key lockKey) *lockStripe {
	h := key.table*2654435761 ^ key.slot
	h *= 16777619
	return &lm.stripes[h&(lockStripeCount-1)]
}

// acquire attempts to take key in mode for txn. It returns:
//   - (nil, nil): granted (or already held at sufficient strength);
//   - (wait, nil): txn was enqueued; the caller parks in wait, and when
//     it returns the lock IS held (no retry needed). Only this outcome
//     constructs a wait point — wp is not called on the uncontended
//     paths. wp runs under the lock manager's mutexes and must only
//     build the pair, never block;
//   - (nil, ErrDeadlock): waiting would deadlock; caller must abort.
func (lm *lockManager) acquire(txn *Txn, key lockKey, mode LockMode, wp WaitPointFunc) (wait func(), err error) {
	st := lm.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	ls := st.state(key)
	if h := ls.holder(txn); h != nil {
		if covers(h.mode, mode) {
			return nil, nil
		}
		// Upgrade to the join (S→X, S+IX→SIX, ...): granted immediately
		// iff txn is the only holder. Queued waiters cannot have been
		// grantable anyway (the head would conflict with txn's mode,
		// which nothing but S or IX shares, and only with itself), and
		// letting the upgrade jump the queue avoids needless upgrade
		// deadlocks. txn.locks already records key from the first
		// acquisition.
		if len(ls.holders) == 1 {
			h.mode = join(h.mode, mode)
			return nil, nil
		}
	}
	if len(ls.queue) == 0 && ls.grantable(txn, mode) {
		// txn cannot already be a holder here: a covered mode returned
		// above, and an upgrade either returned (sole holder) or is not
		// grantable (the others share txn's mode, which no stronger
		// mode shares).
		ls.holders = append(ls.holders, lockHolder{txn, mode})
		txn.locks = append(txn.locks, key)
		return nil, nil
	}

	// Must wait: record wait-for edges and check for a cycle. Edge
	// mutation and the enqueue happen together under graphMu (with the
	// stripe mutex still held) so concurrent cycle checks always see a
	// picture consistent with the queue they would observe.
	blockers := map[int64]bool{}
	for _, h := range ls.holders {
		if h.txn != txn {
			blockers[h.txn.id] = true
		}
	}
	for _, w := range ls.queue {
		if w.txn != txn {
			blockers[w.txn.id] = true
		}
	}
	lm.graphMu.Lock()
	lm.waitsFor[txn.id] = blockers
	if lm.cycleFrom(txn.id) {
		delete(lm.waitsFor, txn.id)
		lm.graphMu.Unlock()
		lm.deadlocks.Add(1)
		return nil, ErrDeadlock
	}
	wait, wake := wp()
	ls.queue = append(ls.queue, lockWaiter{txn: txn, mode: mode, wake: wake})
	txn.everWaited = true
	lm.graphMu.Unlock()
	lm.waits.Add(1)
	return wait, nil
}

// cycleFrom reports whether start can reach itself in the wait-for
// graph. Caller holds graphMu.
func (lm *lockManager) cycleFrom(start int64) bool {
	seen := map[int64]bool{}
	var dfs func(t int64) bool
	dfs = func(t int64) bool {
		for next := range lm.waitsFor[t] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// releaseAll drops every lock held by txn and grants queued waiters
// whose requests have become compatible, invoking their wake callbacks.
func (lm *lockManager) releaseAll(txn *Txn) {
	lm.graphMu.Lock()
	delete(lm.waitsFor, txn.id)
	lm.graphMu.Unlock()
	for _, key := range txn.locks {
		st := lm.stripeFor(key)
		st.mu.Lock()
		if ls := st.locks[key]; ls != nil {
			ls.dropHolder(txn)
			lm.grantWaiters(key, ls)
			st.retire(key, ls)
		}
		st.mu.Unlock()
	}
	txn.locks = txn.locks[:0]
}

// cancelWaits removes txn from every wait queue (used when a
// transaction aborts; normally a no-op since an aborting transaction
// cannot be parked on a lock at the same time). Transactions that
// never enqueued anywhere skip the stripe sweep entirely — rollback is
// a hot path under deadlock retry and must not serialize on all 64
// stripe mutexes for nothing.
func (lm *lockManager) cancelWaits(txn *Txn) {
	if !txn.everWaited {
		return
	}
	lm.graphMu.Lock()
	delete(lm.waitsFor, txn.id)
	lm.graphMu.Unlock()
	for i := range lm.stripes {
		st := &lm.stripes[i]
		st.mu.Lock()
		for key, ls := range st.locks {
			changed := false
			for i := len(ls.queue) - 1; i >= 0; i-- {
				if ls.queue[i].txn == txn {
					ls.dequeue(i)
					changed = true
				}
			}
			if changed {
				lm.grantWaiters(key, ls)
				st.retire(key, ls)
			}
		}
		st.mu.Unlock()
	}
}

// grantWaiters grants queue-head waiters whose requests are compatible
// with the remaining holders. Caller holds the stripe mutex for ls's
// key; the waiter's graph edges are removed and the holder set updated
// in one graphMu section so cycle checks never see a granted waiter as
// still waiting.
func (lm *lockManager) grantWaiters(key lockKey, ls *lockState) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !ls.grantable(w.txn, w.mode) {
			break
		}
		ls.dequeue(0)
		lm.graphMu.Lock()
		delete(lm.waitsFor, w.txn.id)
		if h := ls.holder(w.txn); h != nil {
			h.mode = join(h.mode, w.mode)
		} else {
			ls.holders = append(ls.holders, lockHolder{w.txn, w.mode})
			// The waiter's goroutine is parked (or about to park) on the
			// wait point, so appending to its lock list here is safe; the
			// wake callback publishes the append to it.
			w.txn.locks = append(w.txn.locks, key)
		}
		lm.graphMu.Unlock()
		w.wake()
	}
}
