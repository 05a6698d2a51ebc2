package runtime

import (
	"testing"
	"time"

	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestAdmissionSessionCap covers the structural gate: the cap admits
// exactly MaxSessions concurrently, refusals don't leak slots, and a
// close frees one.
func TestAdmissionSessionCap(t *testing.T) {
	a := NewAdmissionController(nil, AdmissionConfig{MaxSessions: 2})
	if err := a.AdmitSession(1); err != nil {
		t.Fatal(err)
	}
	if err := a.AdmitSession(2); err != nil {
		t.Fatal(err)
	}
	if err := a.AdmitSession(3); err == nil {
		t.Fatal("third session admitted over a cap of 2")
	}
	if err := a.AdmitSession(4); err == nil {
		t.Fatal("fourth session admitted over a cap of 2")
	}
	a.SessionClosed(1)
	if err := a.AdmitSession(5); err != nil {
		t.Fatalf("slot freed by close not reusable: %v", err)
	}
	st := a.Stats()
	if st.Sessions != 2 || st.AdmittedSessions != 3 || st.ShedSessions != 2 {
		t.Errorf("stats = %+v, want sessions=2 admitted=3 shed=2", st)
	}
	// Without a monitor the load gate must never engage.
	if st.Shedding {
		t.Error("monitor-less controller reports shedding")
	}
}

// forcedMonitor builds a LoadMonitor whose organic components are
// pushed out of reach, so SetExternal is the only signal — the same
// trick the bench drivers use to make load deterministic in-process.
func forcedMonitor() *LoadMonitor {
	m := NewLoadMonitor(nil)
	m.GoroutineSat = 1 << 20
	m.LockWaitSat = 1 << 20
	return m
}

// TestAdmissionHysteresis drives the load gate through a ramp and
// checks the dead band: shedding engages only above HighLoad, holds
// through the band, and releases only below LowLoad — admission
// cannot flap around a single threshold.
func TestAdmissionHysteresis(t *testing.T) {
	mon := forcedMonitor()
	a := NewAdmissionController(mon, AdmissionConfig{HighLoad: 80, LowLoad: 40})

	steps := []struct {
		load     float64
		wantShed bool
		desc     string
	}{
		{10, false, "idle"},
		{70, false, "below high threshold"},
		{90, true, "crossed high: engage"},
		{60, true, "inside the band: hold shedding"},
		{45, true, "still above low: hold shedding"},
		{30, false, "below low: release"},
		{60, false, "inside the band from below: stay open"},
		{85, true, "crossed high again: re-engage"},
	}
	for _, step := range steps {
		mon.SetExternal(step.load)
		err := a.AdmitSession(1)
		if step.wantShed && err == nil {
			t.Errorf("%s (load %.0f): session admitted, want refusal", step.desc, step.load)
		}
		if !step.wantShed && err != nil {
			t.Errorf("%s (load %.0f): session refused: %v", step.desc, step.load, err)
		}
		if !step.wantShed {
			a.SessionClosed(1) // keep the cap-less slot count balanced
		}
		if got := a.Shedding(); got != step.wantShed {
			t.Errorf("%s (load %.0f): shedding=%v, want %v", step.desc, step.load, got, step.wantShed)
		}
	}
}

// TestAdmissionReleaseDefault: an unset LowLoad releases 25 points
// under HighLoad, never below half of it; a set one is kept unless it
// inverts the band.
func TestAdmissionReleaseDefault(t *testing.T) {
	for _, c := range []struct{ high, low, want float64 }{
		{0, 0, 60}, {85, 0, 60}, {100, 0, 75}, {40, 0, 20}, {10, 0, 5},
		{80, 40, 40}, {80, 90, 79},
	} {
		cfg := NewAdmissionController(nil, AdmissionConfig{HighLoad: c.high, LowLoad: c.low}).Config()
		if cfg.LowLoad != c.want {
			t.Errorf("HighLoad %v LowLoad %v: release at %v, want %v", c.high, c.low, cfg.LowLoad, c.want)
		}
	}
}

// TestShedBackoffJitter pins the backoff contract: positive, jittered
// (not a fixed ladder — lockstep retries are exactly what it exists to
// break), growing with attempt, and capped.
func TestShedBackoffJitter(t *testing.T) {
	distinct := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		d := shedBackoff(0)
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("attempt-0 backoff %v outside [1ms, 2ms)", d)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Error("32 attempt-0 backoffs identical: no jitter")
	}
	if d := shedBackoff(9); d < 10*time.Millisecond || d >= 20*time.Millisecond {
		t.Errorf("attempt-9 backoff %v outside [10ms, 20ms)", d)
	}
	if d := shedBackoff(1 << 20); d >= 2*maxShedBackoffStep*time.Millisecond {
		t.Errorf("huge attempt backoff %v escaped the cap", d)
	}
}

// openCounter is a control transport that can open its session on the
// server, and counts the opens.
type openCounter struct {
	rpc.Transport
	opens int
}

func (o *openCounter) Open() error { o.opens++; return nil }

// TestClientOpensOnlyWhatCanTransfer pins Client.Open, where a gated
// server admits a client: a client whose program can transfer control
// opens its session once before its first transfer and never after
// one, and a client whose program runs wholly on the APP side opens
// none, so it holds no admission slot.
func TestClientOpensOnlyWhatCanTransfer(t *testing.T) {
	for _, tc := range []struct {
		name      string
		assign    func(g *pdg.Graph, place pdg.Placement)
		callFirst bool
		want      int
	}{
		{"can transfer, none made", placeOnDB("Calc", []string{"apply"}, "acc"), false, 1},
		{"after a transfer", placeOnDB("Calc", []string{"apply"}, "acc"), true, 0},
		{"wholly on the APP side", nil, false, 0},
	} {
		dep := NewDeployment(compileWith(t, calcSrc, tc.assign), sqldb.Open(), Options{})
		oc := &openCounter{Transport: dep.Client.Remote}
		dep.Client.Remote = oc
		oid, err := dep.Client.NewObject("Calc")
		if err == nil && tc.callFirst {
			_, err = dep.Client.CallEntry("Calc.apply", oid, val.IntV(1), val.BoolV(false))
		}
		if err == nil {
			err = dep.Client.Open()
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if oc.opens != tc.want {
			t.Errorf("%s: %d opens, want %d", tc.name, oc.opens, tc.want)
		}
		if dep.App.Metrics.Transfers.Load() > 0 != tc.callFirst {
			t.Errorf("%s: %d transfers", tc.name, dep.App.Metrics.Transfers.Load())
		}
	}
}
