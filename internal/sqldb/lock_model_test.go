package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pyxis/internal/val"
)

// TestWaitPointBuiltOnlyOnEnqueue counts wait-point constructions: the
// uncontended paths (fresh S, fresh X, re-acquire, sole-holder upgrade,
// shared S) and a refused deadlock build none; every enqueue builds
// exactly one.
func TestWaitPointBuiltOnlyOnEnqueue(t *testing.T) {
	db := Open()
	lm := db.lm
	built := 0
	wp := func() (func(), func()) { built++; return func() {}, func() {} }
	key := func(slot int) lockKey { return lockKey{table: "T", slot: slot, h: fnv32("T")} }
	t1, t2 := db.newTxn(), db.newTxn()

	step := func(name string, txn *Txn, k lockKey, mode LockMode, wantQueued bool, wantErr error, wantBuilt int) {
		t.Helper()
		wait, err := lm.acquire(txn, k, mode, wp)
		if (wait != nil) != wantQueued || !errors.Is(err, wantErr) {
			t.Fatalf("%s: queued=%v err=%v, want queued=%v err=%v", name, wait != nil, err, wantQueued, wantErr)
		}
		if built != wantBuilt {
			t.Fatalf("%s: %d wait points built so far, want %d", name, built, wantBuilt)
		}
	}
	step("fresh S", t1, key(1), LockS, false, nil, 0)
	step("shared S", t2, key(1), LockS, false, nil, 0)
	step("re-acquire S", t1, key(1), LockS, false, nil, 0)
	step("fresh X", t1, key(2), LockX, false, nil, 0)
	step("S under own X", t1, key(2), LockS, false, nil, 0)
	step("fresh S, other row", t2, key(3), LockS, false, nil, 0)
	step("sole-holder upgrade", t2, key(3), LockX, false, nil, 0)
	step("X behind X", t2, key(2), LockX, true, nil, 1)
	// t1 → key(3) would close the cycle t1 → t2 → t1: refused, not queued.
	step("deadlock refused", t1, key(3), LockS, false, ErrDeadlock, 1)
	lm.releaseAll(t1) // grants t2 its X on key(2)
	t3 := db.newTxn()
	step("S behind X", t3, key(2), LockS, true, nil, 2)
	lm.releaseAll(t2)
	lm.releaseAll(t3)
	checkLockTable(t, lm)

	// End to end: a session's uncontended statements never build one.
	s := db.NewSession()
	s.WaitPoint = wp
	mustExec(t, s, "CREATE TABLE w (k INT PRIMARY KEY, v INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "INSERT INTO w VALUES (?, 0)", val.IntV(int64(i)))
		mustExec(t, s, "UPDATE w SET v = v + 1 WHERE k = ?", val.IntV(int64(i)))
		mustQuery(t, s, "SELECT v FROM w")
	}
	if built != 2 {
		t.Errorf("uncontended statements built %d wait points", built-2)
	}
}

// checkLockTable asserts the lock table's structural invariants: every
// mapped state is in use, every freelisted state is idle (no holders,
// no waiters) and unmapped, and the freelist length matches its count.
func checkLockTable(t *testing.T, lm *lockManager) {
	t.Helper()
	for i := range lm.stripes {
		st := &lm.stripes[i]
		st.mu.Lock()
		mapped := map[*lockState]bool{}
		for key, ls := range st.locks {
			mapped[ls] = true
			if len(ls.holders) == 0 && len(ls.queue) == 0 {
				t.Errorf("stripe %d: idle state still mapped at %v", i, key)
			}
		}
		n := 0
		for ls := st.free; ls != nil; ls = ls.next {
			n++
			if len(ls.holders) != 0 || len(ls.queue) != 0 {
				t.Errorf("stripe %d: freelist holds a state with %d holders, %d waiters", i, len(ls.holders), len(ls.queue))
			}
			if mapped[ls] {
				t.Errorf("stripe %d: freelisted state is still mapped", i)
			}
		}
		if n != st.nfree || n > lockFreeMax {
			t.Errorf("stripe %d: freelist has %d states, counter says %d (max %d)", i, n, st.nfree, lockFreeMax)
		}
		st.mu.Unlock()
	}
}

// lockModel is the reference the random schedule is checked against: a
// map-based lock table with the manager's grant rules — FIFO queue,
// S shares with S, a sole S holder upgrades past the queue, a request
// that would close a waits-for cycle is refused — and nothing of its
// representation. The waits-for graph is derived from the table on
// demand instead of maintained.
type lockModel struct {
	holders map[int]map[int]LockMode // key → txn → mode
	queue   map[int][]modelWaiter    // key → FIFO
	held    map[int][]int            // txn → keys, in grant order
	woken   []int                    // txns granted from a queue, in order
}

type modelWaiter struct {
	txn  int
	mode LockMode
}

func newLockModel() *lockModel {
	return &lockModel{holders: map[int]map[int]LockMode{}, queue: map[int][]modelWaiter{}, held: map[int][]int{}}
}

func (m *lockModel) grantable(txn, key int, mode LockMode) bool {
	for h, hm := range m.holders[key] {
		if h != txn && !(hm == LockS && mode == LockS) {
			return false
		}
	}
	return true
}

// blockedBy lists whom txn, queued (or about to queue, at the tail) on
// key, waits for: the key's other holders and everyone ahead of it.
func (m *lockModel) blockedBy(txn, key int) []int {
	var out []int
	for h := range m.holders[key] {
		if h != txn {
			out = append(out, h)
		}
	}
	for _, w := range m.queue[key] {
		if w.txn == txn {
			break
		}
		out = append(out, w.txn)
	}
	return out
}

func (m *lockModel) waitingOn(txn int) (int, bool) {
	for key, q := range m.queue {
		for _, w := range q {
			if w.txn == txn {
				return key, true
			}
		}
	}
	return 0, false
}

func (m *lockModel) reaches(from, target int, seen map[int]bool) bool {
	key, waiting := m.waitingOn(from)
	if !waiting {
		return false
	}
	for _, next := range m.blockedBy(from, key) {
		if next == target {
			return true
		}
		if !seen[next] {
			seen[next] = true
			if m.reaches(next, target, seen) {
				return true
			}
		}
	}
	return false
}

func (m *lockModel) grant(txn, key int, mode LockMode) {
	if m.holders[key] == nil {
		m.holders[key] = map[int]LockMode{}
	}
	if _, already := m.holders[key][txn]; !already {
		m.held[txn] = append(m.held[txn], key)
	}
	m.holders[key][txn] = max(mode, m.holders[key][txn])
}

// acquire returns "granted", "queued" or "deadlock".
func (m *lockModel) acquire(txn, key int, mode LockMode) string {
	if held, ok := m.holders[key][txn]; ok {
		if held >= mode {
			return "granted"
		}
		if len(m.holders[key]) == 1 {
			m.holders[key][txn] = LockX
			return "granted"
		}
	}
	if len(m.queue[key]) == 0 && m.grantable(txn, key, mode) {
		m.grant(txn, key, mode)
		return "granted"
	}
	for _, b := range m.blockedBy(txn, key) {
		if b == txn || m.reaches(b, txn, map[int]bool{}) {
			return "deadlock"
		}
	}
	m.queue[key] = append(m.queue[key], modelWaiter{txn, mode})
	return "queued"
}

func (m *lockModel) grantQueue(key int) {
	for len(m.queue[key]) > 0 {
		w := m.queue[key][0]
		if !m.grantable(w.txn, key, w.mode) {
			return
		}
		m.queue[key] = m.queue[key][1:]
		m.grant(w.txn, key, w.mode)
		m.woken = append(m.woken, w.txn)
	}
}

// finish ends txn (commit and abort release alike): it leaves any
// queue it sits in, then gives up its locks in the order it got them.
func (m *lockModel) finish(txn int) {
	if key, waiting := m.waitingOn(txn); waiting {
		m.queue[key] = slices.DeleteFunc(m.queue[key], func(w modelWaiter) bool { return w.txn == txn })
		m.grantQueue(key)
	}
	for _, key := range m.held[txn] {
		delete(m.holders[key], txn)
		m.grantQueue(key)
	}
	delete(m.held, txn)
}

// TestLockManagerMatchesModel runs seeded random schedules of acquire,
// commit and abort (of running and of queued transactions) against the
// lock manager and the reference model, and demands the same outcome
// for every request, the same grant order, and the same holders —
// checking the freelist invariants after every step.
func TestLockManagerMatchesModel(t *testing.T) {
	const txns, keys, steps = 6, 5, 4000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open()
		lm := db.lm
		model := newLockModel()
		var woken []int
		outcomes := map[string]int{}
		live := make([]*Txn, txns) // slot → its current transaction
		gen := make([]int, txns)   // slot → how many transactions it has run
		id := func(slot int) int { return slot + txns*gen[slot] }
		for i := range live {
			live[i] = db.newTxn()
		}
		key := func(k int) lockKey { return lockKey{table: "T", slot: k, h: fnv32("T")} }

		for step := 0; step < steps; step++ {
			slot := rng.Intn(txns)
			txn, mid := live[slot], id(slot)
			_, parked := model.waitingOn(mid)
			what := ""
			switch r := rng.Intn(10); {
			case r < 7 && !parked:
				k, mode := rng.Intn(keys), LockMode(rng.Intn(2))
				what = fmt.Sprintf("txn %d acquires key %d %v", mid, k, mode)
				want := model.acquire(mid, k, mode)
				wait, err := lm.acquire(txn, key(k), mode, func() (func(), func()) {
					return func() {}, func() { woken = append(woken, mid) }
				})
				got := "granted"
				switch {
				case errors.Is(err, ErrDeadlock):
					got = "deadlock"
				case wait != nil:
					got = "queued"
				}
				if got != want {
					t.Fatalf("seed %d step %d: %s: %s, model says %s", seed, step, what, got, want)
				}
				outcomes[got]++
				if got != "deadlock" {
					break
				}
				// The victim is the requester: it aborts.
				fallthrough
			case r < 9:
				// Commit or abort; a parked transaction can only abort.
				what += fmt.Sprintf(" / txn %d ends", mid)
				model.finish(mid)
				lm.cancelWaits(txn)
				lm.releaseAll(txn)
				gen[slot]++
				live[slot] = db.newTxn()
			default:
				continue
			}
			if !slices.Equal(woken, model.woken) {
				t.Fatalf("seed %d step %d: %s: grant order %v, model says %v", seed, step, what, woken, model.woken)
			}
			for k := 0; k < keys; k++ {
				st := lm.stripeFor(key(k))
				st.mu.Lock()
				ls := st.locks[key(k)]
				for s2 := range live {
					var got LockMode
					held := false
					if ls != nil {
						if h := ls.holder(live[s2]); h != nil {
							got, held = h.mode, true
						}
					}
					want, wantHeld := model.holders[k][id(s2)]
					if held != wantHeld || got != want {
						t.Errorf("seed %d step %d: %s: txn %d on key %d: held=%v mode=%v, model says held=%v mode=%v",
							seed, step, what, id(s2), k, held, got, wantHeld, want)
					}
				}
				st.mu.Unlock()
			}
			checkLockTable(t, lm)
			if t.Failed() {
				t.FailNow()
			}
		}
		for slot := range live {
			lm.cancelWaits(live[slot])
			lm.releaseAll(live[slot])
		}
		checkLockTable(t, lm)
		if outcomes["granted"] == 0 || outcomes["queued"] == 0 || outcomes["deadlock"] == 0 || len(woken) == 0 {
			t.Errorf("seed %d: schedule is vacuous: outcomes %v, %d queue grants", seed, outcomes, len(woken))
		}
		t.Logf("seed %d: %v, %d queue grants", seed, outcomes, len(woken))
	}
}
