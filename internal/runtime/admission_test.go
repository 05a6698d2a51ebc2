package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestAdmissionSessionCap covers the cap: a cap of 2 admits exactly
// two sessions concurrently, refusals don't leak slots, and a close
// frees one.
func TestAdmissionSessionCap(t *testing.T) {
	a := NewAdmissionController(2)
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
}

// TestAdmissionCapConcurrent races opens against the cap: of 32
// concurrent AdmitSession calls on a cap of 8 exactly 8 win, the
// counters agree, and closing the winners frees every slot.
func TestAdmissionCapConcurrent(t *testing.T) {
	const limit, racers = 8, 32
	a := NewAdmissionController(limit)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if a.AdmitSession(uint32(i)) == nil {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != limit {
		t.Fatalf("%d of %d racers admitted on a cap of %d", got, racers, limit)
	}
	if st := a.Stats(); st.Sessions != limit || st.AdmittedSessions != limit || st.ShedSessions != racers-limit {
		t.Errorf("stats = %+v, want sessions=%d admitted=%d shed=%d", st, limit, limit, racers-limit)
	}
	for i := range limit {
		a.SessionClosed(uint32(i))
	}
	if n := a.Stats().Sessions; n != 0 {
		t.Errorf("%d sessions after every admitted one closed, want 0", n)
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
