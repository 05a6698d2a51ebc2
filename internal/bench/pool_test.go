package bench

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
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

// TestRunPoolLedgerStripes drives the ledger over a pool of 4
// connections per wire: all transactions complete, sessions stripe
// across the pool's connections instead of piling onto one, and the
// deposit audit holds (no lost updates through the pool).
func TestRunPoolLedgerStripes(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := runLedger(t, part, WallCfg{Clients: 8, Txns: 12, Conns: 4}, LedgerMix{DepositEvery: 3})
	if r.sum.txns != 8*12 {
		t.Errorf("completed %d txns, want %d", r.sum.txns, 8*12)
	}
	deposits := r.sum.kinds[kindDeposit]
	if deposits != 8*4 {
		t.Errorf("%d deposits, want every third call of %d", deposits, 8*12)
	}
	for _, v := range CheckLedger(r.db, deposits) {
		t.Errorf("through the pool: %s", v)
	}
	// Placement audit: 8 idle-pool sessions over 4 connections must
	// spread (round-robin tie-break); a broken pool puts all 8 on
	// connection 0.
	spread := 0
	for _, n := range r.placed.conn {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("sessions did not stripe: per-conn counts %v", r.placed.conn)
	}
	if r.sum.sheds != 0 {
		t.Errorf("un-gated server shed %d opens", r.sum.sheds)
	}
}

// TestRunPoolSaturationShedsGracefully is the admission proof at test
// scale: more clients than admitted-session slots, so the server must
// shed with ErrOverloaded, yet every transaction eventually commits,
// every admission slot is given back, and the TPC-C invariants hold
// afterwards. The opens are scripted so the saturation is forced, not
// left to goroutine scheduling: the first clients' sessions fill every
// slot before any client starts, and they start their transactions
// only once the server has refused the first of the rest.
func TestRunPoolSaturationShedsGracefully(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, slots := WallCfg{Clients: 6, Txns: 4, Conns: 2}, 2
	adm := runtime.NewAdmissionController(slots)
	d := up(t, deploy.Topology{Conns: cfg.Conns, Partition: part, NewDB: c.load,
		Mux: rpc.MuxServeConfig{Admission: adm}})
	defer d.Close()

	held := make([]*deploy.Client, slots)
	for i := range held {
		if held[i], err = d.App.Open("TPCC"); err != nil {
			t.Fatal(err)
		}
	}
	refused := make(chan struct{})
	var once sync.Once
	out, err := drive(cfg.Clients, cfg.Txns,
		func(i int) (*deploy.Client, error) {
			if i < slots {
				<-refused
				return held[i], nil
			}
			s, err := d.App.Open("TPCC")
			once.Do(func() { close(refused) })
			return s, err
		}, tpccStep(c, TPCCMix{PaymentEvery: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// A slot is given back when the server's worker has drained the
	// session, which can land after the client's Close returns.
	for deadline := time.Now().Add(2 * time.Second); adm.Stats().Sessions != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	sum, st := out.total(), adm.Stats()
	if sum.txns != cfg.Clients*cfg.Txns {
		t.Errorf("completed %d txns, want %d (shed work must be retried, not dropped)",
			sum.txns, cfg.Clients*cfg.Txns)
	}
	if sum.sheds == 0 || st.ShedSessions == 0 {
		t.Errorf("no sheds despite %d clients over a %d-session cap (client=%d server=%d)",
			cfg.Clients, slots, sum.sheds, st.ShedSessions)
	}
	if st.Sessions != 0 {
		t.Errorf("%d admission slots leaked after all clients closed", st.Sessions)
	}
	if st.AdmittedSessions < int64(cfg.Clients) {
		t.Errorf("only %d sessions ever admitted, want >= %d (every client must get through)", st.AdmittedSessions, cfg.Clients)
	}
	for _, v := range CheckTPCCInvariants(d.DB, c) {
		t.Errorf("invariant violated under shedding: %s", v)
	}
}
