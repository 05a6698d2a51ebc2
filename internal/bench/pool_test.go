package bench

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/val"
)

// shedTransport refuses every control transfer the way a saturated
// server does.
type shedTransport struct{}

func (shedTransport) Call([]byte) ([]byte, error) {
	return nil, fmt.Errorf("test shed: %w", rpc.ErrOverloaded)
}
func (shedTransport) Close() error { return nil }

// TestShedRollsBackAppSideTxn pins the orphaned-transaction fix: when
// a control transfer is shed with ErrOverloaded, any transaction the
// entry had already opened on the APP-side connection must be rolled
// back before the error surfaces — a shed-retry re-runs the entry
// from the top (begin would fail "already in a transaction") and the
// abandoned transaction's row locks would otherwise block admitted
// sessions until the connection died.
func TestShedRollsBackAppSideTxn(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parallelDB(1)
	if err != nil {
		t.Fatal(err)
	}
	appPeer := runtime.NewPeer(part.Compiled, pdg.App, nil)
	local := dbapi.NewLocal(db)
	client := runtime.NewClient(appPeer.NewSession(local), shedTransport{})

	// Simulate the entry's app-side prefix: transaction open, row lock
	// held, right before a control transfer the server then refuses.
	if err := local.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Exec("UPDATE accounts SET balance = 1.0 WHERE cid = 0"); err != nil {
		t.Fatal(err)
	}
	oid, err := client.NewObject("Ledger", val.IntV(0))
	if err == nil {
		_, err = client.CallEntry("Ledger.deposit", oid,
			val.IntV(0), val.IntV(0), val.DoubleV(1))
	}
	if !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("shedding transport surfaced %v, want ErrOverloaded", err)
	}

	if local.Sess.InTxn() {
		t.Fatal("shed left the app-side transaction open")
	}
	// The orphaned transaction's row lock must be gone: an independent
	// session can write the same row without blocking.
	done := make(chan error, 1)
	go func() {
		other := db.NewSession()
		_, werr := other.Exec("UPDATE accounts SET balance = 2.0 WHERE cid = 0")
		done <- werr
	}()
	select {
	case werr := <-done:
		if werr != nil {
			t.Fatalf("post-shed writer failed: %v", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-shed writer blocked on an orphaned row lock")
	}
}

// TestRunPoolLedgerStripes drives the pooled ledger driver end to end
// over loopback TCP: all transactions complete, sessions stripe
// across the pool's connections instead of piling onto one, and the
// deposit audit holds (no lost updates through the pool).
func TestRunPoolLedgerStripes(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, dbs, err := WallLedger(part, WallCfg{Clients: 8, Txns: 12, Conns: 4}, LedgerMix{DepositEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTxns != 8*12 {
		t.Errorf("completed %d txns, want %d", res.TotalTxns, 8*12)
	}
	if res.Deposits != 8*4 {
		t.Errorf("%d deposits, want every third call of %d", res.Deposits, 8*12)
	}
	for _, v := range CheckLedger(dbs, res.Deposits) {
		t.Errorf("through the pool: %s", v)
	}
	// Placement audit: 8 idle-pool sessions over 4 connections must
	// spread (round-robin tie-break) — a broken pool puts all 8 on
	// connection 0.
	spread := 0
	for _, n := range res.SessionsPerConn {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("sessions did not stripe: per-conn counts %v", res.SessionsPerConn)
	}
	if res.Sheds != 0 {
		t.Errorf("un-gated server shed %d calls", res.Sheds)
	}
}

// TestRunPoolScalingSweep runs the 1-conn vs N-conn comparison at
// small scale. Wall-clock speedup is only asserted on parallel
// hardware (and never under the race detector) — the contract here is
// that every point completes and audits clean, and that the pooled
// points are not catastrophically SLOWER than the single connection
// (the pool must at worst be ~free).
func TestRunPoolScalingSweep(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	var results []*WallResult
	for _, conns := range []int{1, 4} {
		r, dbs, err := WallLedger(part, WallCfg{Clients: 8, Txns: 20, Conns: conns}, LedgerMix{DepositEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalTxns != 8*20 {
			t.Errorf("conns=%d completed %d txns, want %d", conns, r.TotalTxns, 8*20)
		}
		for _, v := range CheckLedger(dbs, r.Deposits) {
			t.Errorf("conns=%d: %s", conns, v)
		}
		results = append(results, r)
	}
	t.Logf("\n%s", SweepReport(results, "conns"))
	if !raceEnabled && goruntime.GOMAXPROCS(0) >= 4 {
		if ratio := results[1].Tput / results[0].Tput; ratio < 0.5 {
			t.Errorf("4-conn pool ran at %.2fx of single-conn throughput; pooling should never cost half the wire", ratio)
		}
	}
}

// TestRunPoolSaturationShedsGracefully is the wall-clock admission
// proof at test scale: more clients than admitted-session slots, so
// the server MUST shed with ErrOverloaded — yet every transaction
// eventually commits, the concurrent population stays at the cap, and
// the TPC-C invariants hold afterwards.
func TestRunPoolSaturationShedsGracefully(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, slots := WallCfg{Clients: 6, Txns: 4, Conns: 2}, 2
	res, dbs, err := WallTPCC(part, c, cfg, TPCCMix{PaymentEvery: 3}, slots)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if res.TotalTxns != cfg.Clients*cfg.Txns {
		t.Errorf("completed %d txns, want %d (shed work must be retried, not dropped)",
			res.TotalTxns, cfg.Clients*cfg.Txns)
	}
	if res.Sheds == 0 || res.Admission.ShedSessions == 0 {
		t.Errorf("no sheds despite %d clients over a %d-session cap (client=%d server=%d)",
			cfg.Clients, slots, res.Sheds, res.Admission.ShedSessions)
	}
	if res.Admission.Sessions != 0 {
		t.Errorf("%d admission slots leaked after all clients closed", res.Admission.Sessions)
	}
	if got := res.Admission.AdmittedSessions; got < int64(cfg.Clients) {
		t.Errorf("only %d sessions ever admitted, want >= %d (every client must get through)", got, cfg.Clients)
	}
	if violations := CheckTPCCInvariants(dbs[0], c); len(violations) > 0 {
		for _, v := range violations {
			t.Errorf("invariant violated under shedding: %s", v)
		}
	}
}
