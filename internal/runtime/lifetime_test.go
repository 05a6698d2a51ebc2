package runtime

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"pyxis/internal/compile"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Lifetime of query results (Session.sweepTables): a table lives on a
// peer exactly as long as a live slot of a stack that peer shipped
// names it. The benchmark's programs are held to that in
// lifetime_workload_test.go; these tests pin the corners on programs
// small enough to place by hand.

// lifeSrc makes one table on the DB and reads it on the APP. Which
// statements of far, pick and hop sit where is set by placeStmts.
const lifeSrc = `
class Life {
    Life() {}

    entry int far(int k) {
        table t = db.query("SELECT v FROM kv WHERE k = ?", k);
        int a = bump(k);
        int b = t.getInt(0, 0);
        return a + b;
    }

    int bump(int x) {
        return x + 1;
    }

    entry int pick(int k) {
        table t = db.query("SELECT v FROM kv WHERE k = ?", 1);
        int r = 7;
        if (k > 0) {
            r = t.getInt(0, 0);
        }
        return r;
    }

    entry int hop(int a, int b) {
        db.begin();
        table t = db.query("SELECT v FROM kv WHERE k = ?", a);
        db.update("UPDATE kv SET v = v + 1 WHERE k = ?", a);
        int n = t.getInt(0, 0) + 1;
        db.update("UPDATE kv SET v = v + ? WHERE k = ?", n, b);
        db.commit();
        return n + t.getInt(0, 0);
    }
}
`

// placeStmts places the listed top-level statements of Life.method on
// the database server, everything else of it staying on the APP.
func placeStmts(method string, onDB ...int) func(g *pdg.Graph, place pdg.Placement) {
	return func(g *pdg.Graph, place pdg.Placement) {
		body := g.Prog.Method("Life", method).Body.Stmts
		for _, i := range onDB {
			place[body[i].ID()] = pdg.DB
		}
	}
}

// lifeDeployment is lifeSrc deployed, with both sessions at hand and
// its control wire passing through hook.
type lifeDeployment struct {
	*Deployment
	app, db *Session
	hook    *hookTransport
}

// hookTransport numbers the transfers that cross it from 1. before
// runs ahead of a transfer, and an error it returns is the transfer's
// outcome; after runs once the DB has replied, before the APP reads
// the reply.
type hookTransport struct {
	rpc.Transport
	n      int
	before func(n int) error
	after  func(n int, resp []byte)
}

func (h *hookTransport) Call(req []byte) ([]byte, error) {
	h.n++
	if h.before != nil {
		if err := h.before(h.n); err != nil {
			return nil, err
		}
	}
	resp, err := h.Transport.Call(req)
	if h.after != nil && err == nil {
		h.after(h.n, resp)
	}
	return resp, err
}

// deployLife compiles lifeSrc at the given placements, fuses it, and
// deploys it over a kv table with rows (1, 10) and (2, 20).
func deployLife(t *testing.T, assign ...func(g *pdg.Graph, place pdg.Placement)) *lifeDeployment {
	t.Helper()
	prog := compileWith(t, lifeSrc, func(g *pdg.Graph, place pdg.Placement) {
		for _, a := range assign {
			a(g, place)
		}
	})
	compile.Fuse(prog)
	db := sqldb.Open()
	s := db.NewSession()
	for _, q := range []string{"CREATE TABLE kv (k INT PRIMARY KEY, v INT)", "INSERT INTO kv VALUES (1, 10)", "INSERT INTO kv VALUES (2, 20)"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	dep := NewDeployment(prog, db, Options{})
	t.Cleanup(func() { dep.Client.Close() })
	d := &lifeDeployment{Deployment: dep, app: dep.Client.Sess, db: dep.Sessions.Hosted()[0]}
	d.hook = &hookTransport{Transport: dep.Client.Remote}
	dep.Client.Remote = d.hook
	return d
}

func (d *lifeDeployment) tables() [2]int {
	return [2]int{d.app.Heap.TableCount(), d.db.Heap.TableCount()}
}

// TestTableSurvivesWhileLive: far's table is made on the DB, crosses
// to the APP, rides in a caller frame to the DB and back while bump
// runs there, and is read on the APP two transfers after it was made.
// Both peers keep it for as long as the stacks they ship name it.
func TestTableSurvivesWhileLive(t *testing.T) {
	d := deployLife(t, placeStmts("far", 0), placeOnDB("Life", []string{"bump"}))
	obj, err := d.Client.NewObject("Life")
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	d.hook.before = func(int) error { got = append(got, d.tables()); return nil }
	d.hook.after = func(int, []byte) { got = append(got, d.tables()) }
	v, err := d.Client.CallEntry("Life.far", obj, val.IntV(1))
	if err != nil || v.I != 12 {
		t.Fatalf("far(1) = %v, %v; want 12", v, err)
	}
	// {APP, DB} tables as each transfer leaves and as its reply arrives
	// (before the APP has applied it).
	want := [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 1}}
	if len(got) != len(want) {
		t.Fatalf("saw %d transfer ends, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tables held {APP, DB} at transfer ends: %v, want %v", got, want)
			break
		}
	}
	// far returned on the APP: its heap is clean, and the DB is left with
	// what its last reply shipped live until it replies again.
	if got := d.tables(); got != [2]int{0, 1} {
		t.Errorf("after the call: {APP, DB} hold %v tables, want {0, 1}", got)
	}
	if _, err := d.Client.CallEntry("Life.far", obj, val.IntV(2)); err != nil {
		t.Fatal(err)
	}
	if got := d.tables(); got != [2]int{0, 1} {
		t.Errorf("after a second call: {APP, DB} hold %v tables, want {0, 1} (retention is one call's, not the session's)", got)
	}
}

// TestDeadTablePendingSendStillArrives pins the order sweep-after-
// encodeSync. pick's table is pending sendNative when the DB branches
// to the arm that never reads it: dead at the resume point, so the
// sweep frees it, but the sync record that was promised still has to
// be serialized from it first. Swept before encodeSync, the reply would
// be built from a table that is gone.
func TestDeadTablePendingSendStillArrives(t *testing.T) {
	d := deployLife(t, placeStmts("pick", 0, 1, 2))
	obj, err := d.Client.NewObject("Life")
	if err != nil {
		t.Fatal(err)
	}
	// The reply, and a copy of the APP's stack as it awaits it.
	var reply []byte
	var kept []*Frame
	d.hook.after = func(_ int, resp []byte) {
		reply = append([]byte(nil), resp...)
		for _, fr := range d.app.stack {
			c := *fr
			c.Slots, c.dirty = slices.Clone(fr.Slots), slices.Clone(fr.dirty)
			kept = append(kept, &c)
		}
	}
	v, err := d.Client.CallEntry("Life.pick", obj, val.IntV(0))
	if err != nil || v.I != 7 {
		t.Fatalf("pick(0) = %v, %v; want 7", v, err)
	}
	if d.hook.n != 1 {
		t.Fatalf("pick made %d transfers, want 1", d.hook.n)
	}
	if got := d.tables(); got != [2]int{0, 0} {
		t.Errorf("after the call: {APP, DB} hold %v tables, want none (the DB shipped no live table)", got)
	}
	// The reply on a fresh APP session holding that stack: no slot names
	// a table, and the table arrived all the same.
	sn := d.App.NewSession(d.app.DB)
	sn.stack = kept
	r := &rpc.Reader{Buf: reply}
	if r.Bool() {
		t.Fatal("the DB finished the call; pick's return was placed on the APP")
	}
	if _, err := sn.decodeTransfer(r); err != nil {
		t.Fatal(err)
	}
	for _, fr := range sn.stack {
		for s, v := range fr.Slots {
			if v.K == val.Table {
				t.Errorf("slot %d of %s carries a table; the test needs it dead at the resume point", s, fr.Method.QName)
			}
		}
	}
	if got := sn.Heap.TableCount(); got != 1 {
		t.Errorf("the reply installed %d tables, want the 1 that was pending sendNative", got)
	}
}

// TestAbandonedCallsFreeTheirTables: a call that dies in flight leaves
// the APP heap clean at once, and the DB heap clean no later than the
// DB's next reply, which ships a stack that names none of the dead
// call's tables.
func TestAbandonedCallsFreeTheirTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"wire-lost", errors.New("rpc: mux connection lost")},
		{"overloaded", rpc.ErrOverloaded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := deployLife(t, placeStmts("far", 0), placeOnDB("Life", []string{"bump"}))
			obj, err := d.Client.NewObject("Life")
			if err != nil {
				t.Fatal(err)
			}
			// The second transfer carries the table in far's frame; it
			// never reaches the DB.
			d.hook.before = func(n int) error {
				if n == 2 {
					return tc.err
				}
				return nil
			}
			if _, err := d.Client.CallEntry("Life.far", obj, val.IntV(1)); !errors.Is(err, tc.err) {
				t.Fatalf("far over a failing wire: %v, want %v", err, tc.err)
			}
			if got := d.tables(); got != [2]int{0, 1} {
				t.Fatalf("after the abandoned call: {APP, DB} hold %v tables, want {0, 1}", got)
			}
			dead := d.db.liveTabs[0]
			d.hook.after = func(int, []byte) {
				if _, err := d.db.Heap.Table(dead); err == nil {
					t.Errorf("the DB still holds the abandoned call's table %d after its next reply", dead)
				}
			}
			if v, err := d.Client.CallEntry("Life.far", obj, val.IntV(2)); err != nil || v.I != 23 {
				t.Fatalf("far(2) after the abandoned call = %v, %v; want 23", v, err)
			}
		})
	}

	// A deadlock victim: hop holds row 1 and a table on both peers when
	// its second update closes a cycle with a session that holds row 2
	// and waits for row 1. The engine aborts the requester, the DB-side
	// run fails, and both heaps are clean without another reply.
	t.Run("deadlock-victim", func(t *testing.T) {
		d := deployLife(t, placeStmts("hop", 0, 1, 2, 4, 5))
		obj, err := d.Client.NewObject("Life")
		if err != nil {
			t.Fatal(err)
		}
		other := d.DB.NewSession()
		if err := other.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Exec("UPDATE kv SET v = v + 100 WHERE k = 2"); err != nil {
			t.Fatal(err)
		}
		otherDone := make(chan error, 1)
		d.hook.before = func(n int) error {
			if n != 2 {
				return nil
			}
			if got := d.tables(); got != [2]int{1, 1} {
				t.Errorf("as hop's second transfer leaves: {APP, DB} hold %v tables, want {1, 1}", got)
			}
			waits, _ := d.DB.LockWaits()
			go func() {
				_, err := other.Exec("UPDATE kv SET v = v + 100 WHERE k = 1")
				if err == nil {
					err = other.Commit()
				}
				otherDone <- err
			}()
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if w, _ := d.DB.LockWaits(); w > waits {
					return nil
				}
				if time.Now().After(deadline) {
					return errors.New("the other session never waited for row 1")
				}
			}
		}
		_, err = d.Client.CallEntry("Life.hop", obj, val.IntV(1), val.IntV(2))
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("hop = %v, want a deadlock abort", err)
		}
		if got := d.tables(); got != [2]int{0, 0} {
			t.Errorf("after the victim's abort: {APP, DB} hold %v tables, want none", got)
		}
		if err := <-otherDone; err != nil {
			t.Fatalf("the surviving session: %v", err)
		}
	})
}
