package runtime

import (
	"testing"
	"time"

	"pyxis/internal/sqldb"
)

// TestLoadMonitorDynamicSignal exercises the blended saturation
// sample: component normalization, the external-load lever tests use
// to force a ramp, the 100% clamp, and the windowed lock-wait rate
// derivative.
func TestLoadMonitorDynamicSignal(t *testing.T) {
	db := sqldb.Open()
	m := NewLoadMonitor(db)

	if load := m.Load(); load < 0 || load > 100 {
		t.Errorf("idle load out of range: %v", load)
	}
	if rate := m.lockWaitRate(); rate != 0 {
		t.Errorf("idle monitor reads phantom contention: %v waits/s", rate)
	}

	// External (forced) load adds on top and clamps at 100.
	m.SetExternal(95)
	if m.External() != 95 {
		t.Fatalf("external = %v, want 95", m.External())
	}
	if load := m.Load(); load < 95 || load > 100 {
		t.Errorf("forced load not reflected: %v", load)
	}
	m.SetExternal(0)

	// Lock waits raise the contention component via the windowed rate.
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE hot (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO hot VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	blocker := db.NewSession()
	if err := blocker.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := blocker.Exec("UPDATE hot SET v = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan error, 1)
	go func() {
		w := db.NewSession()
		_, err := w.Exec("UPDATE hot SET v = 2 WHERE id = 1")
		waiterDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w, _ := db.LockWaits(); w > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lock wait never registered")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(rateWindow + 10*time.Millisecond)
	rate := m.lockWaitRate()
	if err := blocker.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if rate <= 0 {
		t.Errorf("lock-wait rate stayed zero across a blocked writer: %v", rate)
	}
}

// TestLoadMonitorIdleThenBurstRate is the idle-window regression: the
// rate refresh is traffic-driven, so after an idle stretch the first
// window used to span the whole idle period, averaging a post-idle
// wait burst toward zero exactly when admission needed to react.
// The window must clamp to maxRateWindow. (Simulated by backdating the
// monitor's last sample: lastWaits is set 200 below the counter so the
// next refresh sees a 200-wait burst "arriving" after 10 idle
// seconds.)
func TestLoadMonitorIdleThenBurstRate(t *testing.T) {
	db := sqldb.Open()
	m := NewLoadMonitor(db)

	const burst = 200
	waits, _ := db.LockWaits()
	m.mu.Lock()
	m.lastAt = time.Now().Add(-10 * time.Second)
	m.lastWaits = waits - burst
	m.mu.Unlock()
	m.nextRefresh.Store(0) // force a refresh on the next sample

	rate := m.lockWaitRate()
	// Old code: 200 waits / 10 s = 20/s. Clamped: 200 / maxRateWindow
	// = 1000/s. Anything near the clamped figure proves the idle
	// stretch no longer dilutes the burst.
	want := float64(burst) / maxRateWindow.Seconds()
	if rate < want/2 {
		t.Errorf("post-idle burst rate = %.0f waits/s, want ~%.0f (idle stretch diluted the window)", rate, want)
	}

	// A counter reset (fresh DB behind the monitor) must clamp to rate
	// 0, not go negative and drag the blend down.
	m.mu.Lock()
	m.lastAt = time.Now().Add(-time.Second)
	m.lastWaits = waits + 5000
	m.mu.Unlock()
	m.nextRefresh.Store(0)
	if rate := m.lockWaitRate(); rate != 0 {
		t.Errorf("counter reset produced rate %.0f, want 0", rate)
	}
}
