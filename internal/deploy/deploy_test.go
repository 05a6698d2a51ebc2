package deploy

import (
	"errors"
	goruntime "runtime"
	"strings"
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
		top.Partition = part
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

// TestListenDialCapShedsControlOnly wires one shard the way
// pyxis-dbserver -max-sessions 1 and pyxis-app do: one Open holds the
// one admission slot, a second control session is shed, and a database
// session is not, because the database wire is served ungated.
func TestListenDialCapShedsControlOnly(t *testing.T) {
	db := ledgerDB(t)
	s := &Shard{DB: db, Partition: ledgerPartitions(t, 1.0)[0], Mux: rpc.MuxServeConfig{
		Admission: runtime.NewAdmissionController(1),
	}}
	srv, err := Listen(s, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	app, err := Dial([]string{srv.DB.Addr()}, []string{srv.Ctl.Addr()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	c, err := app.Open(0, "Ledger", val.IntV(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
		t.Fatal(err)
	}
	if n := s.peer.Metrics.Snapshot().Transfers; n == 0 {
		t.Error("the budget-1 deposit made no control transfer")
	}
	if got := balance(t, db); got != 1 {
		t.Errorf("balance %v after one deposit, want 1", got)
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
		srv, err := Listen(&Shard{DB: ledgerDB(t), Partition: p}, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		dbAddrs, ctlAddrs = append(dbAddrs, srv.DB.Addr()), append(ctlAddrs, srv.Ctl.Addr())
	}
	before := goruntime.NumGoroutine()
	app, err := Dial(dbAddrs, ctlAddrs, 2, nil)
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

// TestOpenWithoutProgram: a shard that serves no program cannot open a
// client, and says so with ErrNotServed; its database wire still
// serves SQL.
func TestOpenWithoutProgram(t *testing.T) {
	bare, err := Listen(&Shard{DB: ledgerDB(t)}, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	sqlOnly, err := Dial([]string{bare.DB.Addr()}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sqlOnly.Close()
	if sqlOnly.Partition != nil || sqlOnly.Ctl != nil {
		t.Fatalf("rebuilt %v and dialled control wire %v from a shard with no program", sqlOnly.Partition, sqlOnly.Ctl)
	}
	if c, err := sqlOnly.Open(0, "Ledger", val.IntV(0)); !errors.Is(err, ErrNotServed) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Open against a shard with no program: err %v, want ErrNotServed", err)
	}
	sess, err := sqlOnly.DB.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()
	if _, err := conn.Query("SELECT balance FROM accounts WHERE cid = 0"); err != nil {
		t.Errorf("SQL on a shard with no program: %v", err)
	}
}
