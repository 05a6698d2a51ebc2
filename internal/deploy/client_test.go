package deploy

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// pairTier stands up one shard serving the ledger at budgets 1 (high)
// and 0 (low), with mux configuration mux (nil: none, so no load report
// ever reaches the switcher and only the test moves it).
func pairTier(t *testing.T, mux func(int, *sqldb.DB) rpc.MuxServeConfig) *Tier {
	t.Helper()
	parts := ledgerPartitions(t, 1.0, 0)
	tier, err := Up(Topology{High: parts[0], Low: parts[1], Mux: mux,
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
	// A high deposit is one control transfer; a low one is four database
	// round trips (begin, update, query, commit).
	if ctl, db := wire(); ctl != 4 || db != 12 {
		t.Errorf("%d control and %d database calls, want 4 and 12", ctl, db)
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
	if ctl, db := wire(); ctl != 5 || db != 13 {
		t.Errorf("after the failed call: %d control and %d database calls, want 5 and 13", ctl, db)
	}
}

// scriptedAdmission admits every session and sheds the next calls it
// is told to, running onShed(k) as it sheds the k-th.
type scriptedAdmission struct {
	sheds, shed atomic.Int64 // sheds to come, sheds made
	onShed      func(k int64)
}

func (*scriptedAdmission) AdmitSession(uint32) error { return nil }
func (*scriptedAdmission) SessionClosed(uint32)      {}
func (a *scriptedAdmission) AdmitCall(uint32, int) error {
	if a.sheds.Add(-1) < 0 {
		a.sheds.Add(1)
		return nil
	}
	k := a.shed.Add(1)
	a.onShed(k)
	return fmt.Errorf("scripted shed %d", k)
}

// TestClientCallRetriesShedsWithFreshPick: Call backs off on every
// shed and picks a half afresh for each attempt. The high half's
// server sheds twice; only the second shed's load report moves the
// switcher, so the second attempt still runs high and the third low.
// The call then counts once, on the low half, with both sheds.
func TestClientCallRetriesShedsWithFreshPick(t *testing.T) {
	var tier *Tier
	adm := &scriptedAdmission{onShed: func(k int64) {
		if k == 2 {
			tier.Router.Switcher(0).Observe(99)
		}
	}}
	tier = pairTier(t, func(int, *sqldb.DB) rpc.MuxServeConfig { return rpc.MuxServeConfig{Admission: adm} })
	c, err := tier.Open(0, "Ledger", val.IntV(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	adm.sheds.Store(2)
	v, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 1 || adm.shed.Load() != 2 {
		t.Errorf("deposit returned %v after %d sheds, want 1 after 2", v, adm.shed.Load())
	}
	if got, want := c.Stats(), (CallStats{Low: 1, Sheds: 2}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}
