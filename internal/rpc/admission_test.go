package rpc

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// deadline polls a condition with a test-failing timeout (async
// lifecycle callbacks fire after worker drain, not inline).
type deadline struct {
	t  *testing.T
	at time.Time
}

func newDeadline(t *testing.T) *deadline {
	return &deadline{t: t, at: time.Now().Add(5 * time.Second)}
}

func (d *deadline) tick(format string, args ...any) {
	d.t.Helper()
	if time.Now().After(d.at) {
		d.t.Fatalf(format, args...)
	}
	time.Sleep(time.Millisecond)
}

// stubAdmission is a scriptable AdmissionPolicy: flip the gates and
// count the lifecycle calls.
type stubAdmission struct {
	refuseSessions atomic.Bool
	refuseCalls    atomic.Bool

	admitted atomic.Int64
	closed   atomic.Int64
}

func (a *stubAdmission) AdmitSession(sid uint32) error {
	if a.refuseSessions.Load() {
		return errors.New("stub: session refused")
	}
	a.admitted.Add(1)
	return nil
}

func (a *stubAdmission) AdmitCall(sid uint32, queueLen int) error {
	if a.refuseCalls.Load() {
		return errors.New("stub: call refused")
	}
	return nil
}

func (a *stubAdmission) SessionClosed(sid uint32) { a.closed.Add(1) }

// TestMuxAdmissionSessionShed pins the session gate's wire behavior: a
// refused session sheds with the typed ErrOverloaded, no handler is
// ever opened for it, and once the gate opens a retry on the SAME
// session succeeds (a refusal left no server state behind).
func TestMuxAdmissionSessionShed(t *testing.T) {
	adm := &stubAdmission{}
	adm.refuseSessions.Store(true)
	h := &echoHandlers{}
	c := pipeMuxConfig(t, h, MuxServeConfig{Admission: adm})

	s := c.Session()
	_, err := s.Call([]byte("hi"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("refused session error = %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "session refused") {
		t.Errorf("shed reply lost the policy's reason: %v", err)
	}
	if h.opened.Load() != 0 {
		t.Fatalf("handler opened for a refused session")
	}

	// Gate opens: the same session retries straight through.
	adm.refuseSessions.Store(false)
	resp, err := s.Call([]byte("hi"))
	if err != nil || string(resp[4:]) != "hi" {
		t.Fatalf("retry after refusal: %q %v", resp, err)
	}
	if h.opened.Load() != 1 || adm.admitted.Load() != 1 {
		t.Errorf("opened=%d admitted=%d after one successful retry, want 1/1",
			h.opened.Load(), adm.admitted.Load())
	}

	// Closing the admitted session releases its admission slot exactly
	// once.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := newDeadline(t)
	for adm.closed.Load() == 0 {
		deadline.tick("SessionClosed never fired")
	}
	if got := adm.closed.Load(); got != 1 {
		t.Errorf("SessionClosed fired %d times, want 1", got)
	}
}

// TestMuxAdmissionCallShed pins the per-call gate: calls on an already
// admitted session shed typed while the gate is closed, the session
// survives, and traffic resumes when the gate opens.
func TestMuxAdmissionCallShed(t *testing.T) {
	adm := &stubAdmission{}
	h := &echoHandlers{}
	c := pipeMuxConfig(t, h, MuxServeConfig{Admission: adm})

	s := c.Session()
	if _, err := s.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}

	adm.refuseCalls.Store(true)
	for k := 0; k < 3; k++ {
		if _, err := s.Call([]byte("blocked")); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("call %d under a closed gate: %v, want ErrOverloaded", k, err)
		}
	}

	adm.refuseCalls.Store(false)
	resp, err := s.Call([]byte("resumed"))
	if err != nil || string(resp[4:]) != "resumed" {
		t.Fatalf("traffic did not resume after the gate opened: %q %v", resp, err)
	}
	if h.opened.Load() != 1 {
		t.Errorf("session churned %d times across call sheds, want a single open", h.opened.Load())
	}
}

// TestMuxServerConfigAdmission covers the server-level wiring: a
// policy in the server's config gates the connections it accepts.
func TestMuxServerConfigAdmission(t *testing.T) {
	adm := &stubAdmission{}
	adm.refuseSessions.Store(true)
	srv, err := NewMuxServerConfig("127.0.0.1:0", func() SessionHandlers { return &echoHandlers{} },
		MuxServeConfig{Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	if _, err := s.Call([]byte("hi")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("server-installed policy not applied: %v", err)
	}
	adm.refuseSessions.Store(false)
	if resp, err := s.Call([]byte("hi")); err != nil || string(resp[4:]) != "hi" {
		t.Fatalf("retry after gate opened: %q %v", resp, err)
	}
}

// TestMuxAdmissionTeardownReleasesSlots checks the other
// SessionClosed path: connection teardown (not an explicit close
// frame) must release every admitted session's slot.
func TestMuxAdmissionTeardownReleasesSlots(t *testing.T) {
	adm := &stubAdmission{}
	c := pipeMuxConfig(t, &echoHandlers{}, MuxServeConfig{Admission: adm})

	for i := 0; i < 3; i++ {
		if _, err := c.Session().Call([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if adm.admitted.Load() != 3 {
		t.Fatalf("admitted %d sessions, want 3", adm.admitted.Load())
	}
	c.Close()
	deadline := newDeadline(t)
	for adm.closed.Load() != 3 {
		deadline.tick("teardown released %d of 3 admission slots", adm.closed.Load())
	}
}
