package deploy

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// pairTier stands up one shard serving the ledger at budgets 1 (high)
// and 0 (low), with mux configuration mux (nil: none, so no load report
// ever reaches the switcher and only the test moves it).
func pairTier(t *testing.T, mux func(int, *sqldb.DB) rpc.MuxServeConfig) *Tier {
	return pooledPairTier(t, 1, mux)
}

// pooledPairTier is pairTier over conns pooled connections per wire.
func pooledPairTier(t *testing.T, conns int, mux func(int, *sqldb.DB) rpc.MuxServeConfig) *Tier {
	t.Helper()
	parts := ledgerPartitions(t, 1.0, 0)
	tier, err := Up(Topology{Conns: conns, High: parts[0], Low: parts[1], Mux: mux,
		NewDB: func(int) (*sqldb.DB, error) { return ledgerDB(t), nil }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	return tier
}

// TestPairExactCounts drives the shard's switcher from a fixed load
// script, one deposit after each sample, and pins every count the pair
// produces: the switcher's flips, the calls each half ran, and the
// calls on each wire. The high half runs a deposit as one control
// transfer and no database round trip; the low half as database round
// trips and no control transfer. A call that fails counts on neither
// half.
func TestPairExactCounts(t *testing.T) {
	tier := pairTier(t, nil)
	c, err := tier.Open(0, "Ledger", val.IntV(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sw := tier.Router.Switcher(0)
	ctl0, db0 := tier.Ctl.Stats().Calls, tier.DB.Stats().Calls

	script := []float64{5, 95, 95, 5, 5, 95, 5}
	flips, low := 0, false
	var served string
	for _, load := range script {
		sw.Observe(load)
		if sw.UseLowBudget() != low {
			low = !low
			flips++
		}
		before := c.Stats()
		if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Low > before.Low {
			served += "L"
		} else {
			served += "H"
		}
	}
	if flips != 4 || served != "HLLHHLH" {
		t.Errorf("%d flips serving %s, want 4 serving HLLHHLH", flips, served)
	}
	wire := func() (ctl, db int64) { return tier.Ctl.Stats().Calls - ctl0, tier.DB.Stats().Calls - db0 }
	if got, want := c.Stats(), (CallStats{High: 4, Low: 3}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	// A high deposit is one control transfer; a low one is three
	// database round trips (the update, which carries the begin, the
	// query and the commit).
	if ctl, db := wire(); ctl != 4 || db != 9 {
		t.Errorf("%d control and %d database calls, want 4 and 9", ctl, db)
	}
	if got := balance(t, tier.DBs[0]); got != float64(len(script)) {
		t.Errorf("balance %v after %d deposits", got, len(script))
	}
	// Account 1 does not exist: the deposit reads no row and fails on the
	// high half, which then rolls the APP side's connection back.
	if _, err := c.Call("Ledger.deposit", val.IntV(1), val.DoubleV(1)); err == nil {
		t.Fatal("a deposit to a missing account succeeded")
	}
	if got, want := c.Stats(), (CallStats{High: 4, Low: 3}); got != want {
		t.Errorf("a failed call counted: stats %+v, want %+v", got, want)
	}
	if ctl, db := wire(); ctl != 5 || db != 10 {
		t.Errorf("after the failed call: %d control and %d database calls, want 5 and 10", ctl, db)
	}
}

// TestPoolRepliesReportEmptyQueues pins the premise of admitting once
// per session: every client makes one call at a time per session, so
// no reply on either wire ever leaves a call queued behind it, even
// with concurrent clients striped over two pooled connections and
// calling both halves.
func TestPoolRepliesReportEmptyQueues(t *testing.T) {
	var deepest atomic.Int64
	tier := pooledPairTier(t, 2, func(int, *sqldb.DB) rpc.MuxServeConfig {
		return rpc.MuxServeConfig{Load: func(queueLen int) (rpc.LoadReport, bool) {
			for d := deepest.Load(); int64(queueLen) > d; d = deepest.Load() {
				if deepest.CompareAndSwap(d, int64(queueLen)) {
					break
				}
			}
			return rpc.LoadReport{}, false
		}}
	})
	const clients, calls = 8, 10
	var high, low atomic.Int64
	run := func() {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := tier.Open(0, "Ledger", val.IntV(int64(i)))
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for k := 0; k < calls; k++ {
					if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
						t.Error(err)
						return
					}
				}
				high.Add(c.Stats().High)
				low.Add(c.Stats().Low)
			}()
		}
		wg.Wait()
	}
	run()
	tier.Router.Switcher(0).Observe(99)
	run()
	if high.Load() != clients*calls || low.Load() != clients*calls {
		t.Errorf("%d high and %d low calls, want %d of each", high.Load(), low.Load(), clients*calls)
	}
	if got := deepest.Load(); got != 0 {
		t.Errorf("a reply left %d calls queued on its session, want 0", got)
	}
}

// TestAdmissionNeverShedsAdmittedSessions pins the admission contract:
// the server decides at Open and only there. Once the load is forced
// to 100, an open client's calls all still run, a new Open is refused
// with rpc.ErrOverloaded, and Open succeeds again once the load falls
// below the release level; the session cap refuses an Open beyond it.
// A client holds one slot: its low program (budget 0) never transfers
// control, so that half opens no control session on the server.
func TestAdmissionNeverShedsAdmittedSessions(t *testing.T) {
	var mon *runtime.LoadMonitor
	var adm *runtime.AdmissionController
	tier := pairTier(t, func(_ int, db *sqldb.DB) rpc.MuxServeConfig {
		mon = runtime.NewLoadMonitor(db)
		mon.GoroutineSat, mon.LockWaitSat = 1<<20, 1<<20 // only the forced load moves the blend
		adm = runtime.NewAdmissionController(mon, runtime.AdmissionConfig{MaxSessions: 2})
		return rpc.MuxServeConfig{Admission: adm}
	})
	open := func() (*Client, error) { return tier.Open(0, "Ledger", val.IntV(0)) }
	c, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := adm.Stats().Sessions; n != 1 {
		t.Fatalf("an open client holds %d admission slots, want 1", n)
	}

	mon.SetExternal(100)
	for k := 0; k < 5; k++ {
		if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
			t.Fatalf("call %d on an admitted client at load 100: %v", k, err)
		}
	}
	if got, want := c.Stats(), (CallStats{High: 5}); got != want {
		t.Errorf("stats %+v, want %+v (every call on the gated control wire)", got, want)
	}
	if _, err := open(); !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("Open at load 100: %v, want rpc.ErrOverloaded", err)
	}

	mon.SetExternal(0)
	second, err := open()
	if err != nil {
		t.Fatalf("Open after the load fell: %v", err)
	}
	defer second.Close()
	if _, err := open(); !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("Open beyond the 2-session cap: %v, want rpc.ErrOverloaded", err)
	}
	if got := balance(t, tier.DBs[0]); got != 5 {
		t.Errorf("balance %v after 5 deposits", got)
	}
}
