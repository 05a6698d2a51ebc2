package deploy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// ledgerTier stands up a tier serving the ledger at budget, with
// control-wire configuration mux.
func ledgerTier(t *testing.T, budget float64, mux rpc.MuxServeConfig) *Tier {
	t.Helper()
	tier, err := Up(Topology{Partition: ledgerPartitions(t, budget)[0], Mux: mux,
		NewDB: func() (*sqldb.DB, error) { return ledgerDB(t), nil }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	return tier
}

// TestDepositExactCounts pins the calls on each wire a deposit makes
// at each end of the budget range: at budget 1 one control transfer
// and no database round trip; at budget 0 no control transfer and
// three database round trips (the update, which carries the begin, the
// query and the commit).
func TestDepositExactCounts(t *testing.T) {
	for _, tc := range []struct {
		budget            float64
		ctl, db           int64 // per deposit
		failedCtl, failDB int64 // for the deposit to a missing account
	}{
		{1, 1, 0, 1, 0},
		{0, 0, 3, 0, 3},
	} {
		tier := ledgerTier(t, tc.budget, rpc.MuxServeConfig{})
		c, err := tier.App.Open("Ledger", val.IntV(0))
		if err != nil {
			t.Fatal(err)
		}
		app := tier.App
		ctl0, db0 := app.Ctl.Stats().Calls, app.DB.Stats().Calls
		wire := func() (ctl, db int64) { return app.Ctl.Stats().Calls - ctl0, app.DB.Stats().Calls - db0 }
		const deposits = 7
		for k := 0; k < deposits; k++ {
			if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
				t.Fatal(err)
			}
		}
		if ctl, db := wire(); ctl != deposits*tc.ctl || db != deposits*tc.db {
			t.Errorf("budget %v: %d control and %d database calls, want %d and %d", tc.budget, ctl, db, deposits*tc.ctl, deposits*tc.db)
		}
		if got := balance(t, tier.DB); got != deposits {
			t.Errorf("budget %v: balance %v after %d deposits", tc.budget, got, deposits)
		}
		// Account 1 does not exist: the deposit commits, then fails reading
		// the row its query did not find. The APP side's connection holds
		// no transaction then, so the failure sends it no rollback: budget
		// 1 makes no database call, and budget 0 its usual three.
		if _, err := c.Call("Ledger.deposit", val.IntV(1), val.DoubleV(1)); err == nil {
			t.Fatalf("budget %v: a deposit to a missing account succeeded", tc.budget)
		}
		if ctl, db := wire(); ctl != deposits*tc.ctl+tc.failedCtl || db != deposits*tc.db+tc.failDB {
			t.Errorf("budget %v: after the failed call: %d control and %d database calls, want %d and %d",
				tc.budget, ctl, db, deposits*tc.ctl+tc.failedCtl, deposits*tc.db+tc.failDB)
		}
		c.Close()
	}
}

// frameWatch relays TCP connections to one address and reads the mux
// frames crossing them ([len u32][sid u32][rid u32][kind u8][body]).
// A call on a session whose previous call has not been answered would
// wait in the server's queue for that session; queued counts them.
// Each frame is recorded before it is passed on, so a reply is booked
// before its caller can send the next call.
type frameWatch struct {
	addr          string
	calls, queued atomic.Int64
}

func watchFrames(t *testing.T, target string) *frameWatch {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	w := &frameWatch{addr: lis.Addr().String()}
	go func() {
		for {
			cli, err := lis.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", target)
			if err != nil {
				cli.Close()
				continue
			}
			var mu sync.Mutex
			waiting := map[uint32]bool{} // this connection's sessions awaiting a reply
			go relayFrames(cli, srv, func(sid uint32, kind byte) {
				if kind != 0 { // not a call: a close, which gets no reply
					return
				}
				w.calls.Add(1)
				mu.Lock()
				if waiting[sid] {
					w.queued.Add(1)
				}
				waiting[sid] = true
				mu.Unlock()
			})
			go relayFrames(srv, cli, func(sid uint32, _ byte) {
				mu.Lock()
				delete(waiting, sid)
				mu.Unlock()
			})
		}
	}()
	return w
}

// relayFrames copies frames from src to dst, calling saw on each before
// it passes on, and closes both ends when either fails. It reads each
// head with the framer's own reader and passes it on re-encoded, which
// is byte for byte what the peer sent.
func relayFrames(src, dst net.Conn, saw func(sid uint32, kind byte)) {
	defer src.Close()
	defer dst.Close()
	br := bufio.NewReader(src)
	for {
		h, _, err := rpc.ReadFrameHead(br)
		if err != nil {
			return
		}
		saw(h.SID, h.Kind)
		if _, err := dst.Write(h.Append(nil)); err != nil {
			return
		}
		if _, err := io.CopyN(dst, br, int64(h.Body)); err != nil {
			return
		}
	}
}

// TestPooledClientsNeverQueueCalls pins the premise of admitting once
// per session: every client makes one call at a time per session, so no
// call on either wire ever waits behind another of its session, even
// with concurrent clients striped over two pooled connections. The
// watch itself must see a call sent while its session's previous one
// is blocked on a row lock.
func TestPooledClientsNeverQueueCalls(t *testing.T) {
	db := ledgerDB(t)
	srv, err := Listen(&Shard{DB: db, Partition: ledgerPartitions(t, 1.0)[0]}, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dbWatch, ctlWatch := watchFrames(t, srv.DB.Addr()), watchFrames(t, srv.Ctl.Addr())
	app, err := Dial(dbWatch.addr, ctlWatch.addr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	const clients, calls = 8, 10
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := app.Open("Ledger", val.IntV(int64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// A deposit is one control transfer; the client's own database
			// session then reads the balance.
			for k := 0; k < calls; k++ {
				if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Conn.Query("SELECT balance FROM accounts WHERE cid = 0"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := balance(t, db); got != clients*calls {
		t.Errorf("balance %v after %d deposits", got, clients*calls)
	}
	if dbWatch.calls.Load() == 0 || ctlWatch.calls.Load() == 0 {
		t.Fatalf("%d database and %d control calls watched, want both > 0", dbWatch.calls.Load(), ctlWatch.calls.Load())
	}
	if d, c := dbWatch.queued.Load(), ctlWatch.queued.Load(); d != 0 || c != 0 {
		t.Errorf("%d database and %d control calls queued behind another of their session, want 0", d, c)
	}

	// The watch's own check: holder holds account 0's row lock, and a
	// second session's update waits for it; a call on that session now
	// is queued.
	holder, err := app.DB.Session()
	if err != nil {
		t.Fatal(err)
	}
	h := dbapi.NewClient(holder)
	defer h.Close()
	if err := h.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Exec("UPDATE accounts SET balance = balance + 1 WHERE cid = 0"); err != nil {
		t.Fatal(err)
	}
	blocked, err := app.DB.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Close()
	sent := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); dbWatch.calls.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d database calls watched, want %d", dbWatch.calls.Load(), n)
			}
		}
	}
	errs := make(chan error, 2)
	for k := int64(1); k <= 2; k++ {
		before := dbWatch.calls.Load()
		go func() {
			_, err := dbapi.NewClient(blocked).Exec("UPDATE accounts SET balance = balance + 1 WHERE cid = 0")
			errs <- err
		}()
		sent(before + 1)
	}
	if got := dbWatch.queued.Load(); got != 1 {
		t.Errorf("a call sent behind its session's blocked call: %d queued, want 1", got)
	}
	if err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestAdmissionNeverShedsAdmittedSessions pins the admission contract:
// the server decides at Open and only there. With its 2-session cap
// full, an open client's calls all still run, a new Open is refused
// with rpc.ErrOverloaded, and Open succeeds again once a client
// closes. A client holds one slot.
func TestAdmissionNeverShedsAdmittedSessions(t *testing.T) {
	adm := runtime.NewAdmissionController(2)
	tier := ledgerTier(t, 1.0, rpc.MuxServeConfig{Admission: adm})
	open := func() (*Client, error) { return tier.App.Open("Ledger", val.IntV(0)) }
	c, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := adm.Stats().Sessions; n != 1 {
		t.Fatalf("an open client holds %d admission slots, want 1", n)
	}
	second, err := open()
	if err != nil {
		t.Fatal(err)
	}

	ctl0 := tier.App.Ctl.Stats().Calls
	for k := 0; k < 5; k++ {
		if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
			t.Fatalf("call %d on an admitted client at the cap: %v", k, err)
		}
	}
	if got := tier.App.Ctl.Stats().Calls - ctl0; got != 5 {
		t.Errorf("%d control calls, want 5 (every call on the gated control wire)", got)
	}
	if _, err := open(); !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("Open beyond the 2-session cap: %v, want rpc.ErrOverloaded", err)
	}

	// The server frees the slot when its worker has drained the
	// session, which can land after Close returns.
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	var third *Client
	if _, err := runtime.RetryOverloaded(5*time.Second, func() (err error) {
		third, err = open()
		return err
	}); err != nil {
		t.Fatalf("Open after a client closed: %v", err)
	}
	defer third.Close()
	if got := balance(t, tier.DB); got != 5 {
		t.Errorf("balance %v after 5 deposits", got)
	}
}
