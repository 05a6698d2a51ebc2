package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pyxis/internal/compile"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Hand-placed hazards of the delta stack codec, each checked against
// the reference interpreter: a stack slot that both sides write, a
// return into a shared caller frame, an activation replaced between two
// transfers, and a table that outlives a transfer that does not read it.

const hazardSrc = `
class H {
    int calls;

    H() {
        db.update("CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
        db.update("INSERT INTO kv VALUES (1, 10)");
        db.update("INSERT INTO kv VALUES (2, 20)");
        calls = 0;
    }

    entry int a(int k) {
        int s = k + 1;
        int t = k * 2;
        s = t + 5;
        int u = s - 1;
        int w = u + 3;
        int x = s * 2 + w;
        return s + w + x;
    }

    int inc(int x) {
        return x + 10;
    }

    entry int b(int k) {
        int r = inc(k);
        r = r + 1;
        int q = inc(r);
        return q * 100 + r;
    }

    int f(int x) {
        int y = x * 3;
        int z = y + 1;
        return z;
    }

    entry int c(int k) {
        int a = f(k);
        int b = f(a + 1);
        return a * 1000 + b;
    }

    entry int d(int k) {
        table t = db.query("SELECT v FROM kv WHERE k = ?", k);
        int n = t.rows() + k;
        int a = n + 1;
        int b = a * 2;
        int c = t.getInt(0, 0) + b;
        return a + b + c;
    }
}
`

// placeBody places the listed top-level statements of H.method on the
// database server, the rest of it staying on the APP.
func placeBody(method string, onDB ...int) func(g *pdg.Graph, place pdg.Placement) {
	return func(g *pdg.Graph, place pdg.Placement) {
		body := g.Prog.Method("H", method).Body.Stmts
		for _, i := range onDB {
			place[body[i].ID()] = pdg.DB
		}
	}
}

func TestDeltaCodecHazards(t *testing.T) {
	for _, tc := range []struct {
		name, method string
		place        func(g *pdg.Graph, place pdg.Placement)
		// transfers is how many the APP sends per call: the placement
		// makes the hazard only if control crosses this often.
		transfers int64
	}{
		// (a) The APP writes s, which the DB does not read; the DB writes
		// s; the APP runs without reading s and hands control back to
		// the DB, which reads s; the APP reads it at the end. The APP's
		// stale dirty bit must be cleared by the DB's dirty mask, or its
		// older s overwrites the DB's on the second trip.
		{"a-written-on-both-sides", "a", placeBody("a", 1, 2, 3, 5), 2},
		// (b) inc runs on the DB and returns into b's frame, which both
		// sides hold: the return value must travel as a dirty slot of a
		// shared frame.
		{"b-return-into-shared-frame", "b", placeOnDB("H", []string{"inc"}), 2},
		// (c) f's first statement runs on the DB. Between the transfers of
		// the two calls f returns on the APP and c pushes a new f with
		// another return slot and continuation: it must travel as a new
		// frame, not as the DB's old one.
		{"c-activation-replaced", "c", placeBody("f", 0), 2},
		// (d) The DB makes t and sends it to the APP at once; the APP,
		// then the DB again, run without reading it; the APP reads it two
		// transfers after it arrived. The slot naming t must travel with
		// it, or the APP's sweep frees t in between.
		{"d-table-read-two-transfers-later", "d", placeBody("d", 0, 1, 3), 2},
	} {
		calls := []diffCall{
			{"H." + tc.method, []val.Value{val.IntV(1)}},
			{"H." + tc.method, []val.Value{val.IntV(2)}},
			{"H." + tc.method, []val.Value{val.IntV(1)}},
		}
		want := runReference(t, hazardSrc, "H", calls)
		if strings.Contains(want, "-> err") {
			t.Fatalf("%s: the schedule raises an error in the reference:\n%s", tc.name, want)
		}
		for _, fuse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fused=%v", tc.name, fuse), func(t *testing.T) {
				prog := compileWith(t, hazardSrc, tc.place)
				if fuse {
					compile.Fuse(prog)
				}
				got, transfers := runSchedule(t, prog, "H", calls)
				if got != want {
					t.Errorf("left the reference interpreter:\n-- interp --\n%s\n-- runtime --\n%s", want, got)
				}
				if min := tc.transfers * int64(len(calls)); transfers < min {
					t.Errorf("%d transfers for %d calls, want at least %d: the placement does not make the hazard", transfers, len(calls), min)
				}
			})
		}
	}
}

// shedSrc keeps a and b in the DB part, which total reads on the DB.
// put sets a only while it is unset, so a retry of a put whose first
// try was shed finds a set on the APP and sets b alone.
const shedSrc = `
class P {
    int a;
    int b;

    P() {}

    entry int put(int x) {
        if (a == 0) {
            a = x;
        }
        b = x;
        return total();
    }

    int total() {
        return a * 100 + b;
    }
}
`

// TestShedTransferKeepsFieldMarks: the first transfer, which syncs the
// DB part with a and b set, is shed and retried the way DynamicClient
// retries (RetryOverloaded). The retry syncs b alone; a must travel
// with it, because the shed request never reached the DB.
func TestShedTransferKeepsFieldMarks(t *testing.T) {
	calls := []diffCall{
		{"P.put", []val.Value{val.IntV(5)}},
		{"P.put", []val.Value{val.IntV(7)}},
	}
	want := runReference(t, shedSrc, "P", calls)
	prog := compileWith(t, shedSrc, placeOnDB("P", []string{"total"}, "a", "b"))
	compile.Fuse(prog)
	var out bytes.Buffer
	dep := NewDeployment(prog, sqldb.Open(), Options{Out: &out})
	hook := &hookTransport{Transport: dep.Client.Remote, before: func(n int) error {
		if n == 1 {
			return rpc.ErrOverloaded
		}
		return nil
	}}
	dep.Client.Remote = hook
	oid, err := dep.Client.NewObject("P")
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	var sheds int64
	for i, c := range calls {
		var v val.Value
		n, err := RetryOverloaded(func() (err error) {
			v, err = dep.Client.CallEntry(c.method, oid, c.args...)
			return err
		})
		sheds += n
		traceCall(&tr, i, c.method, v, err)
	}
	if sheds != 1 {
		t.Fatalf("%d sheds absorbed, want 1", sheds)
	}
	if got := finishTrace(&tr, out.Bytes(), dep.DB); got != want {
		t.Errorf("left the reference interpreter:\n-- interp --\n%s\n-- runtime --\n%s", want, got)
	}
}
