package runtime

import (
	"bytes"
	"strings"
	"testing"

	"pyxis/internal/analysis"
	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/pyxil"
	"pyxis/internal/rpc"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// compileAt compiles src with every statement/field forced to the
// given placement map override (nil = all APP except pinned).
func compileWith(t testing.TB, src string, assign func(g *pdg.Graph, place pdg.Placement)) *compile.Program {
	t.Helper()
	prog, err := source.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Run(prog)
	g := pdg.Build(res, profile.New(), pdg.Options{})
	place := pdg.Placement{}
	for id := range g.Nodes {
		place[id] = pdg.App
	}
	place[g.DBCodeID] = pdg.DB
	if assign != nil {
		assign(g, place)
	}
	px := pyxil.Generate(res, g, place, pyxil.Options{})
	compiled, err := compile.Compile(px)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

const calcSrc = `
class Calc {
    int acc;
    int[] history;

    Calc() {
        acc = 0;
        history = new int[8];
    }

    entry int apply(int x, bool double_) {
        if (double_) {
            acc += x * 2;
        } else {
            acc += x;
        }
        history[x % 8] = acc;
        return acc;
    }

    entry int histAt(int i) {
        return history[i % 8];
    }

    entry string describe() {
        string s = "acc=" + sys.str(acc);
        sys.print(s);
        return s;
    }
}
`

func TestSingleSidedExecution(t *testing.T) {
	compiled := compileWith(t, calcSrc, nil)
	var out bytes.Buffer
	dep := NewDeployment(compiled, sqldb.Open(), Options{Out: &out})
	oid, err := dep.Client.NewObject("Calc")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dep.Client.CallEntry("Calc.apply", oid, val.IntV(5), val.BoolV(true)); err != nil || v.I != 10 {
		t.Fatalf("apply = %v, %v", v, err)
	}
	if v, err := dep.Client.CallEntry("Calc.apply", oid, val.IntV(1), val.BoolV(false)); err != nil || v.I != 11 {
		t.Fatalf("apply2 = %v, %v", v, err)
	}
	if v, err := dep.Client.CallEntry("Calc.histAt", oid, val.IntV(1)); err != nil || v.I != 11 {
		t.Fatalf("histAt = %v, %v", v, err)
	}
	if v, err := dep.Client.CallEntry("Calc.describe", oid); err != nil || v.S != "acc=11" {
		t.Fatalf("describe = %v, %v", v, err)
	}
	if !strings.Contains(out.String(), "acc=11") {
		t.Errorf("print output missing: %q", out.String())
	}
	ctl, _ := dep.WireStats()
	if ctl.Calls != 0 {
		t.Errorf("all-APP program made %d control transfers", ctl.Calls)
	}
}

// TestSplitFieldHeapSync places the `acc` field and the arithmetic on
// the DB while the entry prologue stays on APP, and verifies values
// stay consistent across many alternating calls.
func TestSplitFieldHeapSync(t *testing.T) {
	compiled := compileWith(t, calcSrc, placeOnDB("Calc", []string{"apply"}, "acc"))
	dep := NewDeployment(compiled, sqldb.Open(), Options{})
	oid, err := dep.Client.NewObject("Calc")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(1); i <= 20; i++ {
		dbl := i%3 == 0
		add := i
		if dbl {
			add = i * 2
		}
		want += add
		got, err := dep.Client.CallEntry("Calc.apply", oid, val.IntV(i), val.BoolV(dbl))
		if err != nil {
			t.Fatalf("apply(%d): %v", i, err)
		}
		if got.I != want {
			t.Fatalf("apply(%d) = %d, want %d", i, got.I, want)
		}
		// describe() runs on APP and reads acc: the DB-side writes must
		// have been synced across.
		desc, err := dep.Client.CallEntry("Calc.describe", oid)
		if err != nil {
			t.Fatalf("describe: %v", err)
		}
		if want := "acc=" + val.IntV(want).String(); desc.S != want {
			t.Fatalf("describe = %q, want %q", desc.S, want)
		}
	}
	ctl, _ := dep.WireStats()
	if ctl.Calls == 0 {
		t.Error("split placement should transfer control")
	}
}

// TestDistributedOverTCP runs the same split program across a real TCP
// control-transfer server (the cmd/pyxis-dbserver / pyxis-app wiring).
func TestDistributedOverTCP(t *testing.T) {
	compiled := compileWith(t, calcSrc, placeOnDB("Calc", []string{"apply"}, "acc"))
	db := sqldb.Open()

	dbSrv, err := rpc.NewMuxServer("127.0.0.1:0", func() rpc.SessionHandlers { return dbapi.MuxHandlers(db) })
	if err != nil {
		t.Fatal(err)
	}
	defer dbSrv.Close()
	dbPeer := NewPeer(compiled, pdg.DB, nil)
	ctlSrv, err := rpc.NewMuxServer("127.0.0.1:0", func() rpc.SessionHandlers {
		return NewSessionManager(dbPeer, func() dbapi.Conn { return dbapi.NewLocal(db) })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctlSrv.Close()

	dbWire, err := rpc.DialMux(dbSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dbWire.Close()
	ctlWire, err := rpc.DialMux(ctlSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctlWire.Close()

	appPeer := NewPeer(compiled, pdg.App, nil)
	client := NewClient(appPeer.NewSession(dbapi.NewClient(dbWire.Session())), ctlWire.Session())
	defer client.Close()
	oid, err := client.NewObject("Calc")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(1); i <= 10; i++ {
		want += i
		got, err := client.CallEntry("Calc.apply", oid, val.IntV(i), val.BoolV(false))
		if err != nil {
			t.Fatalf("apply over TCP: %v", err)
		}
		if got.I != want {
			t.Fatalf("apply = %d, want %d", got.I, want)
		}
	}
	if ctlWire.Stats().Calls == 0 {
		t.Error("expected TCP control transfers")
	}
}

func TestRuntimeErrors(t *testing.T) {
	compiled := compileWith(t, `
class E {
    int[] a;
    E() { }
    entry int idx(int i) {
        a = new int[3];
        return a[i];
    }
    entry int div(int x) {
        return 10 / x;
    }
}`, nil)
	dep := NewDeployment(compiled, sqldb.Open(), Options{})
	oid, err := dep.Client.NewObject("E")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Client.CallEntry("E.idx", oid, val.IntV(7)); err == nil {
		t.Error("index out of range should error")
	}
	if _, err := dep.Client.CallEntry("E.div", oid, val.IntV(0)); err == nil {
		t.Error("division by zero should error")
	}
	if v, err := dep.Client.CallEntry("E.div", oid, val.IntV(2)); err != nil || v.I != 5 {
		t.Errorf("div(2) = %v, %v", v, err)
	}
	if _, err := dep.Client.CallEntry("E.missing", oid); err == nil {
		t.Error("unknown method should error")
	}
	if _, err := dep.Client.Call("E.nope", oid); err == nil {
		t.Error("unknown method should error")
	}
	if _, err := dep.Client.NewObject("Nope"); err == nil {
		t.Error("unknown class should error")
	}
}

func TestHeapLazyMaterialization(t *testing.T) {
	h := NewHeap(pdg.App)
	ci := &compile.ClassInfo{Name: "X", NumApp: 1, NumDB: 1,
		Fields: []*compile.FieldRef{}}
	oid := h.NewObject(ci)
	if oid%2 != 1 {
		t.Errorf("APP heap should allocate odd OIDs, got %d", oid)
	}
	hd := NewHeap(pdg.DB)
	if oid2 := hd.NewObject(ci); oid2%2 != 0 {
		t.Errorf("DB heap should allocate even OIDs, got %d", oid2)
	}
	// Unknown OID materializes lazily with the instruction's class.
	if _, err := hd.Object(oid, ci); err != nil {
		t.Fatalf("lazy materialization failed: %v", err)
	}
	if _, err := hd.Object(0, ci); err == nil {
		t.Error("null deref should error")
	}
	// A present object is indexed by its own class's layout only.
	if _, err := hd.Object(oid, &compile.ClassInfo{Name: "Y", NumApp: 4}); err == nil {
		t.Error("object of class X handed out as a Y")
	}
	if _, err := hd.Array(12345); err == nil {
		t.Error("unknown array must not materialize (sendNative required)")
	}
}
