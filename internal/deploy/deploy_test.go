package deploy

import (
	"errors"
	goruntime "runtime"
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

// TestUpServesAndCloses stands a tier up over one and over two pooled
// connections, serves one ledger call through a freshly opened
// session, and requires Close to leave nothing serving: the server
// drained and every client read loop gone.
func TestUpServesAndCloses(t *testing.T) {
	part := ledgerPartitions(t, 1.0)[0]
	for _, conns := range []int{1, 2} {
		before := goruntime.NumGoroutine()
		tier, err := Up(Topology{Conns: conns, Partition: part,
			NewDB: func() (*sqldb.DB, error) { return ledgerDB(t), nil }})
		if err != nil {
			t.Fatal(err)
		}
		c, err := tier.App.Open("Ledger", val.IntV(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call("Ledger.deposit", val.IntV(0), val.DoubleV(1)); err != nil {
			t.Fatalf("conns=%d: %v", conns, err)
		}
		c.Close()
		if got := balance(t, tier.DB); got != 1 {
			t.Errorf("conns=%d: balance %v after one deposit, want 1", conns, got)
		}
		if got := tier.Transfers(); got == 0 {
			t.Error("the DB-side peer served no control transfer")
		}
		tier.Close()
		// Close has waited for the server; what is left to settle is
		// the client ends' read loops noticing.
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := goruntime.NumGoroutine(); after > before {
			t.Errorf("conns=%d: %d goroutines before Up, %d after Close", conns, before, after)
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
	app, err := Dial(srv.DB.Addr(), srv.Ctl.Addr(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	c, err := app.Open("Ledger", val.IntV(0))
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

	second, err := app.Ctl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Call([]byte{0}); !errors.Is(err, rpc.ErrOverloaded) {
		t.Errorf("second control session: got %v, want rpc.ErrOverloaded", err)
	}
	sess, err := app.DB.Session()
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()
	if _, err := conn.Query("SELECT balance FROM accounts WHERE cid = 0"); err != nil {
		t.Errorf("database session shed with the control cap full: %v", err)
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
	sqlOnly, err := Dial(bare.DB.Addr(), "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sqlOnly.Close()
	if sqlOnly.Partition != nil || sqlOnly.Ctl != nil {
		t.Fatalf("rebuilt %v and dialled control wire %v from a shard with no program", sqlOnly.Partition, sqlOnly.Ctl)
	}
	if c, err := sqlOnly.Open("Ledger", val.IntV(0)); !errors.Is(err, ErrNotServed) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Open against a shard with no program: err %v, want ErrNotServed", err)
	}
	sess, err := sqlOnly.DB.Session()
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()
	if _, err := conn.Query("SELECT balance FROM accounts WHERE cid = 0"); err != nil {
		t.Errorf("SQL on a shard with no program: %v", err)
	}
}
