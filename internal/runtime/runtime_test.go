package runtime

import (
	"bytes"
	"errors"
	"fmt"
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

func TestSwitcherEWMA(t *testing.T) {
	sw := NewSwitcher()
	if sw.UseLowBudget() {
		t.Error("fresh switcher should use high budget")
	}
	sw.Observe(10)
	if sw.UseLowBudget() {
		t.Error("low load should keep high budget")
	}
	// Sustained high load crosses the 40% threshold via EWMA.
	for i := 0; i < 5; i++ {
		sw.Observe(95)
	}
	if !sw.UseLowBudget() {
		t.Errorf("sustained load should switch (ewma=%v)", sw.Load())
	}
	// A single low sample must not flip back immediately (damping).
	sw.Observe(5)
	if sw.Load() < 10 {
		t.Errorf("EWMA dropped too fast: %v", sw.Load())
	}
	for i := 0; i < 10; i++ {
		sw.Observe(5)
	}
	if sw.UseLowBudget() {
		t.Error("sustained recovery should switch back")
	}

	// Exact EWMA math: L = a*L + (1-a)*S.
	s2 := &Switcher{Alpha: 0.5, Threshold: 40}
	s2.Observe(100) // first sample initializes
	if got := s2.Observe(0); got != 50 {
		t.Errorf("ewma = %v, want 50", got)
	}
}

func TestDynamicClientPickCounting(t *testing.T) {
	sw := NewSwitcher()
	d := &DynamicClient{High: &Client{}, Low: &Client{}, Switcher: sw}
	cl, doneHigh := d.Pick()
	if cl != d.High {
		t.Error("should pick high initially")
	}
	if low, high := d.Picks(); low != 0 || high != 0 {
		// Regression: the old implementation counted at pick time, so
		// in-flight, shed and failed calls inflated the mix.
		t.Errorf("in-flight call already counted: picks = %d,%d", low, high)
	}
	doneHigh(nil)
	for i := 0; i < 5; i++ {
		sw.Observe(99)
	}
	cl, doneLow := d.Pick()
	if cl != d.Low {
		t.Error("should pick low under load")
	}
	// A call the server shed tallies separately, not in the mix...
	_, doneShed := d.Pick()
	doneShed(fmt.Errorf("runtime: control transfer failed: %w", rpc.ErrOverloaded))
	// ...and so does any other failure.
	_, doneFail := d.Pick()
	doneFail(errors.New("deadlock victim"))
	doneLow(nil)
	low, high := d.Picks()
	if low != 1 || high != 1 {
		t.Errorf("picks = %d,%d, want 1,1", low, high)
	}
	if d.Sheds() != 1 {
		t.Errorf("sheds = %d, want 1", d.Sheds())
	}
	if d.Errors() != 1 {
		t.Errorf("errors = %d, want 1", d.Errors())
	}
}

// TestDynamicClientCallEntrySheds: CallEntry backs off on every shed,
// picks a deployment afresh for each attempt, and reports the sheds it
// absorbed with the value of the attempt that got through.
func TestDynamicClientCallEntrySheds(t *testing.T) {
	place := []func(*pdg.Graph, pdg.Placement){placeStmts("far", 0), placeOnDB("Life", []string{"bump"})}
	high, low := deployLife(t, place...), deployLife(t, place...)
	oidHigh, err := high.Client.NewObject("Life")
	if err != nil {
		t.Fatal(err)
	}
	oidLow, err := low.Client.NewObject("Life")
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitcher()
	// The high deployment's server is saturated: it sheds, and its load
	// report moves the switcher to the low one, which sheds once more.
	high.hook.before = func(int) error {
		sw.Observe(99)
		return rpc.ErrOverloaded
	}
	lowSheds := 1
	low.hook.before = func(int) error {
		if lowSheds > 0 {
			lowSheds--
			return rpc.ErrOverloaded
		}
		return nil
	}
	d := &DynamicClient{High: high.Client, Low: low.Client, Switcher: sw}
	res, err := d.CallEntry("Life.far", oidHigh, oidLow, val.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Val.I != 12 || !res.Low || res.Sheds != 2 {
		t.Errorf("result = %+v, want far(1) = 12 served by low after 2 sheds", res)
	}
	if lowPicks, highPicks := d.Picks(); lowPicks != 1 || highPicks != 0 || d.Sheds() != 2 {
		t.Errorf("picks = %d,%d sheds = %d, want 1,0 and 2", lowPicks, highPicks, d.Sheds())
	}
}

// TestSwitcherHysteresis drives the flap case table-style: an EWMA
// hovering around Threshold flips the paper's single-threshold rule on
// every sample; the dead band absorbs it. Alpha 0 makes the EWMA equal
// the last sample, so the table exercises the raw state machine.
func TestSwitcherHysteresis(t *testing.T) {
	cases := []struct {
		name  string
		delta float64
		loads []float64
		want  []bool // UseLowBudget after each sample
	}{
		{
			// δ=0 preserves paper behavior: flap right at the threshold.
			name:  "no-hysteresis-flaps",
			delta: 0,
			loads: []float64{39, 41, 39, 41, 39},
			want:  []bool{false, true, false, true, false},
		},
		{
			// Same hovering trace, δ=5: never leaves high-budget.
			name:  "band-absorbs-flap",
			delta: 5,
			loads: []float64{39, 41, 44, 41, 39, 44, 41},
			want:  []bool{false, false, false, false, false, false, false},
		},
		{
			// Crossing the outer edges flips; re-entering the band keeps
			// the current choice both ways.
			name:  "band-edges",
			delta: 5,
			loads: []float64{30, 46, 44, 36, 41, 34, 39, 44, 46},
			want:  []bool{false, true, true, true, true, false, false, false, true},
		},
		{
			// A negative δ clamps to 0 instead of inverting the band
			// into a flap amplifier (steady 38 would otherwise toggle
			// on every sample).
			name:  "negative-delta-clamps",
			delta: -5,
			loads: []float64{38, 38, 38, 41, 41, 39},
			want:  []bool{false, false, false, true, true, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := &Switcher{Alpha: 0, Threshold: 40, Hysteresis: tc.delta}
			for i, load := range tc.loads {
				sw.Observe(load)
				if got := sw.UseLowBudget(); got != tc.want[i] {
					t.Errorf("after loads[:%d] (=%v): low=%v, want %v", i+1, tc.loads[:i+1], got, tc.want[i])
				}
			}
		})
	}
}

// TestDualSessionManagerRouting checks the session-tag routing that
// lets one manager serve both live deployments of dynamic switching.
func TestDualSessionManagerRouting(t *testing.T) {
	compiled := compileWith(t, calcSrc, nil)
	db := sqldb.Open()
	high := NewPeer(compiled, pdg.DB, nil)
	low := NewPeer(compiled, pdg.DB, nil)
	m := NewDualSessionManager(high, low, func() dbapi.Conn { return dbapi.NewLocal(db) })

	const lowSID = uint32(7) | uint32(TagLowBudget)<<24
	if got := m.Session(7).Peer; got != high {
		t.Error("untagged session routed off the high-budget peer")
	}
	if got := m.Session(lowSID).Peer; got != low {
		t.Error("TagLowBudget session did not route to the low-budget peer")
	}
	if rpc.SessionTag(lowSID) != TagLowBudget {
		t.Fatal("test sid does not carry the low tag")
	}
	if m.Len() != 2 {
		t.Errorf("managed %d sessions, want 2", m.Len())
	}
	// Without a LowPeer the tag is inert.
	single := NewSessionManager(high, func() dbapi.Conn { return dbapi.NewLocal(db) })
	if got := single.Session(lowSID).Peer; got != high {
		t.Error("single-deployment manager must ignore session tags")
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
