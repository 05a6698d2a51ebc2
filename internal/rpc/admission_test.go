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

// stubAdmission is a scriptable AdmissionPolicy: flip the gate and
// count the lifecycle calls.
type stubAdmission struct {
	refuseSessions atomic.Bool

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

// TestMuxSessionOpenDecidesOnce pins MuxSession.Open: a refused open
// is the typed shed with no handler opened, an admitted one opens the
// session's handler, and the session's calls then run whatever the
// gate says. Opens are not calls: the connection's Stats count
// neither them nor their bytes.
func TestMuxSessionOpenDecidesOnce(t *testing.T) {
	adm := &stubAdmission{}
	adm.refuseSessions.Store(true)
	h := &echoHandlers{}
	c := pipeMuxConfig(t, h, MuxServeConfig{Admission: adm})

	s := c.Session()
	if err := s.Open(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("refused open = %v, want ErrOverloaded", err)
	}
	if h.opened.Load() != 0 {
		t.Fatal("handler opened for a refused session")
	}
	adm.refuseSessions.Store(false)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats %+v after two opens, want none counted", st)
	}
	adm.refuseSessions.Store(true)
	for k := 0; k < 3; k++ {
		resp, err := s.Call([]byte("hi"))
		if err != nil || string(resp[4:]) != "hi" {
			t.Fatalf("call %d on an admitted session under a closed gate: %q %v", k, resp, err)
		}
	}
	if err := s.Open(); err != nil {
		t.Fatalf("open of an open session: %v", err)
	}
	if st := c.Stats(); st.Calls != 3 {
		t.Errorf("stats %+v, want the 3 calls alone", st)
	}
	if h.opened.Load() != 1 || adm.admitted.Load() != 1 {
		t.Errorf("opened=%d admitted=%d, want 1/1", h.opened.Load(), adm.admitted.Load())
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
