package deploy

import (
	"errors"
	"math"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

const ledgerSource = `
class Ledger {
    int id;

    Ledger(int id) {
        this.id = id;
    }

    entry double deposit(int acct, double amt) {
        db.begin();
        db.update("UPDATE accounts SET balance = balance + ? WHERE cid = ?", amt, acct);
        table t = db.query("SELECT balance FROM accounts WHERE cid = ?", acct);
        db.commit();
        return t.getDouble(0, 0);
    }
}
`

// ledgerDB holds account 0 at balance 0.
func ledgerDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	if err := pyxis.ExecScript(db, "CREATE TABLE accounts (cid INT PRIMARY KEY, balance DOUBLE); INSERT INTO accounts VALUES (0, 0.0)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// ledgerPartitions compiles the ledger at each budget fraction from one
// profile, as both halves of a deployment do.
func ledgerPartitions(t *testing.T, budgets ...float64) []*pyxis.Partition {
	t.Helper()
	sys, err := pyxis.Load(ledgerSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileSynthetic(ledgerDB(t)); err != nil {
		t.Fatal(err)
	}
	var parts []*pyxis.Partition
	for _, b := range budgets {
		p, err := sys.PartitionAt(b)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	return parts
}

func balance(t *testing.T, db *sqldb.DB) float64 {
	t.Helper()
	rs, err := db.NewSession().Query("SELECT balance FROM accounts WHERE cid = 0")
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows[0][0].F
}

// TestDeployServesEveryShardAndCloses stands the smallest and a
// general topology up, serves one ledger call per shard through freshly
// opened sessions, and requires Close to leave nothing serving: every
// server drained and every client read loop gone.
func TestDeployServesEveryShardAndCloses(t *testing.T) {
	part := ledgerPartitions(t, 1.0)[0]
	for _, top := range []Topology{
		{},
		{Map: runtime.ShardMap{Shards: 2}, Conns: 2},
	} {
		top.High = part
		top.NewDB = func(int) (*sqldb.DB, error) { return ledgerDB(t), nil }
		before := goruntime.NumGoroutine()
		tier, err := Up(top)
		if err != nil {
			t.Fatal(err)
		}
		if len(tier.DBs) != top.Map.NumShards() || len(tier.shards) != len(tier.DBs) {
			t.Fatalf("%d databases and %d shards for %d shards", len(tier.DBs), len(tier.shards), top.Map.NumShards())
		}
		for shard := range tier.DBs {
			c, err := tier.Open(shard, "Ledger", val.IntV(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
				t.Fatalf("shard %d: %v", shard, err)
			}
			c.Close()
		}
		for shard, db := range tier.DBs {
			if got := balance(t, db); got != 1 {
				t.Errorf("shard %d: balance %v after one deposit per shard, want 1", shard, got)
			}
		}
		if got := tier.Transfers(); got == 0 {
			t.Error("no DB-side peer served a control transfer")
		}
		tier.Close()
		// Close has waited for every server; what is left to settle is
		// the client ends' read loops noticing.
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := goruntime.NumGoroutine(); after > before {
			t.Errorf("shards=%d: %d goroutines before Up, %d after Close", top.Map.NumShards(), before, after)
		}
	}
}

// TestListenDialDynamicPair wires one shard the way pyxis-dbserver
// -low-budget 0 -max-sessions 1 and pyxis-app do: one Open holds both
// halves, the high program must serve through the high DB-side peer
// alone and the low program over database round trips alone, load
// reports must ride both wires and steer the pick, and the session cap
// must shed a second control session but no database session.
func TestListenDialDynamicPair(t *testing.T) {
	parts := ledgerPartitions(t, 1.0, 0)
	db := ledgerDB(t)
	var load atomic.Uint64 // the reported load, as float64 bits
	s := &Shard{DB: db, High: parts[0], Low: parts[1], Mux: rpc.MuxServeConfig{
		Load: func(int) (rpc.LoadReport, bool) {
			return rpc.LoadReport{Load: math.Float64frombits(load.Load())}, true
		},
		Admission: runtime.NewAdmissionController(nil, runtime.AdmissionConfig{MaxSessions: 1}),
	}}
	srv, err := Listen(s, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	app, err := Dial(runtime.NewShardedClient(runtime.ShardMap{}), []string{srv.DB.Addr()}, []string{srv.Ctl.Addr()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	transfers := func() (high, low int64) {
		return s.peers[0].Metrics.Snapshot().Transfers, s.peers[1].Metrics.Snapshot().Transfers
	}

	c, err := app.Open(0, "Ledger", val.IntV(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
		t.Fatal(err)
	}
	if h, l := transfers(); h == 0 || l != 0 {
		t.Errorf("idle call: %d high and %d low transfers, want > 0 and 0", h, l)
	}

	// The server saturates. Its next report moves the EWMA over the
	// threshold; the high half holds the one admission slot, and the low
	// program runs on the APP side and never needs one.
	load.Store(math.Float64bits(100))
	if _, err := c.Conn.Query("SELECT balance FROM accounts WHERE cid = 0"); err != nil {
		t.Fatal(err)
	}
	if !app.Router.Switcher(0).UseLowBudget() {
		t.Fatalf("a report of 100%% left the switcher high (EWMA %.1f)", app.Router.Load(0))
	}
	h0, _ := transfers()
	ctl0, db0 := app.Ctl.Stats().Calls, app.DB.Stats().Calls
	if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
		t.Fatal(err)
	}
	if h, l := transfers(); h != h0 || l != 0 || app.Ctl.Stats().Calls != ctl0 {
		t.Errorf("loaded call made control transfers: high %d -> %d, low %d, ctl calls %d -> %d", h0, h, l, ctl0, app.Ctl.Stats().Calls)
	}
	if app.DB.Stats().Calls == db0 {
		t.Error("loaded call made no database round trip")
	}
	if got, want := c.Stats(), (CallStats{High: 1, Low: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if got := balance(t, db); got != 2 {
		t.Errorf("balance %v after two deposits, want 2", got)
	}
	if app.Ctl.LoadReports() == 0 || app.DB.LoadReports() == 0 {
		t.Errorf("load reports: %d on the control wire, %d on the database wire; want both > 0", app.Ctl.LoadReports(), app.DB.LoadReports())
	}

	second, err := app.Ctl.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Call([]byte{0}); !errors.Is(err, rpc.ErrOverloaded) {
		t.Errorf("second control session: got %v, want rpc.ErrOverloaded", err)
	}
	sess, err := app.DB.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()
	if _, err := conn.Query("SELECT balance FROM accounts WHERE cid = 0"); err != nil {
		t.Errorf("database session shed with the control cap full: %v", err)
	}
}

// TestDialRefusesMismatchedShards: two shards serving the ledger at
// budgets 1 and 0 are two programs, and one deployment runs one. Dial
// must refuse the tier with ErrProgramMismatch naming the second shard,
// and hold no connection open afterwards.
func TestDialRefusesMismatchedShards(t *testing.T) {
	parts := ledgerPartitions(t, 1.0, 0)
	var dbAddrs, ctlAddrs []string
	for _, p := range parts {
		srv, err := Listen(&Shard{DB: ledgerDB(t), High: p}, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		dbAddrs, ctlAddrs = append(dbAddrs, srv.DB.Addr()), append(ctlAddrs, srv.Ctl.Addr())
	}
	before := goruntime.NumGoroutine()
	app, err := Dial(runtime.NewShardedClient(runtime.ShardMap{Shards: 2}), dbAddrs, ctlAddrs, 2, nil)
	if !errors.Is(err, ErrProgramMismatch) || app != nil {
		t.Fatalf("Dial over shards at budgets 1 and 0: app %v, err %v; want ErrProgramMismatch", app, err)
	}
	if !strings.Contains(err.Error(), "shard 1 ("+dbAddrs[1]+")") {
		t.Errorf("error %q does not name shard 1", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the refused Dial, %d after: a connection was left open", before, after)
	}
}

// TestOpenLowWithoutLowProgram: a shard that serves no low program
// gives a client the high half alone, which serves every call even
// while the switcher says low; a shard that serves no program at all
// cannot open a client, and says so with ErrNotServed.
func TestOpenLowWithoutLowProgram(t *testing.T) {
	srv, err := Listen(&Shard{DB: ledgerDB(t), High: ledgerPartitions(t, 1.0)[0]}, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	app, err := Dial(runtime.NewShardedClient(runtime.ShardMap{}), []string{srv.DB.Addr()}, []string{srv.Ctl.Addr()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if app.High == nil || app.Low != nil {
		t.Fatalf("rebuilt high %v and low %v, want only a high partition", app.High, app.Low)
	}
	c, err := app.Open(0, "Ledger", val.IntV(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	app.Router.Switcher(0).Observe(100)
	if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Stats(), (CallStats{High: 1}); got != want {
		t.Errorf("stats %+v with no low program, want %+v", got, want)
	}

	bare, err := Listen(&Shard{DB: ledgerDB(t)}, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	sqlOnly, err := Dial(runtime.NewShardedClient(runtime.ShardMap{}), []string{bare.DB.Addr()}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sqlOnly.Close()
	if c, err := sqlOnly.Open(0, "Ledger", val.IntV(0)); !errors.Is(err, ErrNotServed) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Open against a shard with no program: err %v, want ErrNotServed", err)
	}
}
