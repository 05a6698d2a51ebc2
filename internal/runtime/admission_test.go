package runtime

import (
	"io"
	"net"
	"testing"
	"time"

	"pyxis/internal/rpc"
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

// TestAdmissionCallShedWhileSaturated covers the per-call gate: while
// shedding, a session with a deep queue is refused but an idle one
// keeps progressing; after recovery the deep queue is admitted again.
func TestAdmissionCallShedWhileSaturated(t *testing.T) {
	mon := forcedMonitor()
	a := NewAdmissionController(mon, AdmissionConfig{HighLoad: 80, LowLoad: 40})
	shedQ := rpc.SessionQueueDepth / 4

	mon.SetExternal(95)
	if err := a.AdmitCall(1, shedQ); err == nil {
		t.Error("deep-queue call admitted while saturated")
	}
	if err := a.AdmitCall(1, 0); err != nil {
		t.Errorf("idle-queue call refused while saturated: %v (admitted sessions must keep moving)", err)
	}

	mon.SetExternal(10)
	if err := a.AdmitCall(1, shedQ); err != nil {
		t.Errorf("deep-queue call refused after recovery: %v", err)
	}
	if st := a.Stats(); st.ShedCalls != 1 {
		t.Errorf("shed calls = %d, want 1", st.ShedCalls)
	}
}

// TestPoolReportsFoldIntoSharedEWMA is the regression the pool must
// never break: muxFlagLoad reports arriving on DIFFERENT pool
// connections all fold into ONE shared EWMA, and a connection to a
// server configured without a LoadSource mixes into the pool — its
// sessions serve traffic and simply contribute no samples.
func TestPoolReportsFoldIntoSharedEWMA(t *testing.T) {
	echo := rpc.HandlerFactory(func(sid uint32) rpc.Handler {
		return func(req []byte) ([]byte, error) { return req, nil }
	})
	// Connections 0 and 1 report fixed, very different loads;
	// connection 2's server has no LoadSource configured.
	loads := []float64{10, 90}
	pool, err := rpc.NewMuxPool(3, func(i int) (io.ReadWriteCloser, error) {
		srv, cli := net.Pipe()
		cfg := rpc.MuxServeConfig{}
		if i < len(loads) {
			load := loads[i]
			cfg.Load = func(queueLen int) (rpc.LoadReport, bool) {
				return rpc.LoadReport{Load: load, QueueDepth: uint32(queueLen)}, true
			}
		}
		go rpc.ServeMuxConnConfig(srv, echo, cfg)
		return cli, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	sw := NewSwitcher()
	pool.SetOnLoad(sw.ObserveReport)

	// Find one session per connection (round-robin tie-breaking spreads
	// an idle pool over all three).
	byConn := map[uint8]*rpc.MuxSession{}
	for len(byConn) < 3 {
		s, err := pool.TaggedSession(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := byConn[rpc.SessionConn(s.ID())]; !ok {
			byConn[rpc.SessionConn(s.ID())] = s
		}
		if len(byConn) > 3 {
			t.Fatal("more connections than the pool holds")
		}
	}

	// Traffic on the low-load connection alone drags the EWMA to 10...
	for k := 0; k < 40; k++ {
		if _, err := byConn[0].Call([]byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	if got := sw.Load(); got < 9 || got > 11 {
		t.Fatalf("EWMA after low-conn traffic = %.1f, want ~10", got)
	}
	// ...and traffic on the HIGH-load connection moves the SAME EWMA
	// up: the two connections demonstrably feed one average.
	for k := 0; k < 40; k++ {
		if _, err := byConn[1].Call([]byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	if got := sw.Load(); got < 80 {
		t.Fatalf("EWMA after high-conn traffic = %.1f; reports from the second connection did not fold in", got)
	}

	// The connection without a LoadSource serves traffic and feeds nothing.
	before := pool.LoadReports()
	for k := 0; k < 10; k++ {
		if resp, err := byConn[2].Call([]byte("c")); err != nil || string(resp) != "c" {
			t.Fatalf("connection without a LoadSource broken in the pool: %q %v", resp, err)
		}
	}
	if got := pool.LoadReports(); got != before {
		t.Errorf("connection without a LoadSource contributed %d reports", got-before)
	}
	if got := sw.Load(); got < 80 {
		t.Errorf("traffic without reports dragged the EWMA to %.1f", got)
	}
	if before != 80 {
		t.Errorf("reporting connections delivered %d reports, want 80", before)
	}
}

// TestShedBackoffJitter pins the backoff contract: positive, jittered
// (not a fixed ladder — lockstep retries are exactly what it exists to
// break), growing with attempt, and capped.
func TestShedBackoffJitter(t *testing.T) {
	distinct := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		d := ShedBackoff(0)
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("attempt-0 backoff %v outside [1ms, 2ms)", d)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Error("32 attempt-0 backoffs identical: no jitter")
	}
	if d := ShedBackoff(9); d < 10*time.Millisecond || d >= 20*time.Millisecond {
		t.Errorf("attempt-9 backoff %v outside [10ms, 20ms)", d)
	}
	if d := ShedBackoff(1 << 20); d >= 2*maxShedBackoffStep*time.Millisecond {
		t.Errorf("huge attempt backoff %v escaped the cap", d)
	}
}
