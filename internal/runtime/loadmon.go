package runtime

import (
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"pyxis/internal/sqldb"
)

// LoadMonitor samples the DB server's saturation signal, the input of
// admission's load gate. The engine does not serialize, so a single
// CPU figure misses how the server actually saturates; the monitor
// blends two organic signals:
//
//   - a CPU proxy: goroutines per core relative to a saturation point
//     (interp + statement execution pin the CPU first at high client
//     counts);
//   - the sqldb lock-wait rate (hot-row workloads accumulate lock
//     waits while CPU stays flat).
//
// Each component normalizes to percent, the blend takes their max (a
// server is as saturated as its most saturated resource), and any
// external load — background processes, or a test-forced ramp — adds
// on top, clamped to 100. Load is called as sessions ask to open, from
// every connection's demux loop concurrently, and is safe for
// concurrent use.
type LoadMonitor struct {
	DB *sqldb.DB
	// GoroutineSat is the goroutines-per-core count treated as 100%
	// CPU-proxy load (default 64). The proxy counts all goroutines,
	// not just runnable ones — a mux server keeps ~2-3 parked
	// goroutines per idle session — so the saturation point sits well
	// above the handful a quiet server runs, while hundreds of active
	// sessions still read as saturation.
	GoroutineSat float64
	// LockWaitSat is the lock-wait rate (waits/second) treated as 100%
	// contention load (default 500).
	LockWaitSat float64

	// external is the forced/background load in percent (float64 bits).
	external atomic.Uint64

	// Lock-wait rate is a windowed derivative of the engine counter.
	// Load runs on every session open, so the steady-state read is two
	// atomic loads; mu serializes only the
	// refresh once per rateWindow (double-checked against
	// nextRefresh).
	rateBits    atomic.Uint64
	nextRefresh atomic.Int64 // unix nanos of the next refresh
	mu          sync.Mutex
	lastWaits   int64
	lastAt      time.Time
}

const rateWindow = 50 * time.Millisecond

// maxRateWindow caps the differentiation window of the lock-wait rate.
// Refreshes are driven by traffic, so after an idle stretch the
// previous sample can be arbitrarily old; dividing a fresh wait burst
// by the whole idle period would average it toward zero exactly when
// load returns and admission most needs to see it. Clamping the
// window treats everything before the last few windows as history, not
// denominator.
//
// Attributing the whole delta to the clamped window is a bet that
// sessions open as fast as the waits that load them arrive: a refresh
// gap much longer than rateWindow means few sessions opened, and the
// delta is counted as if it arrived near the end. A server whose
// sessions open rarely and then collide over-reports by
// dt/maxRateWindow; absolute rates there are far below LockWaitSat.
const maxRateWindow = 4 * rateWindow

// NewLoadMonitor returns a monitor over db with default saturation
// points.
func NewLoadMonitor(db *sqldb.DB) *LoadMonitor {
	now := time.Now()
	m := &LoadMonitor{DB: db, GoroutineSat: 64, LockWaitSat: 500, lastAt: now}
	m.nextRefresh.Store(now.Add(rateWindow).UnixNano())
	return m
}

// SetExternal sets the external load component in percent — the
// paper's "other processes occupy the database server" signal, and the
// lever tests use to force a load ramp through the real stack.
func (m *LoadMonitor) SetExternal(pct float64) {
	m.external.Store(math.Float64bits(pct))
}

// External returns the current external load component.
func (m *LoadMonitor) External() float64 {
	return math.Float64frombits(m.external.Load())
}

// Load returns the current blended load, percent (0-100).
func (m *LoadMonitor) Load() float64 {
	cores := float64(goruntime.GOMAXPROCS(0))
	cpu := 100 * float64(goruntime.NumGoroutine()) / (m.GoroutineSat * cores)
	lock := 100 * m.lockWaitRate() / m.LockWaitSat
	return math.Min(math.Max(cpu, lock)+m.External(), 100)
}

func (m *LoadMonitor) lockWaitRate() float64 {
	if m.DB == nil {
		return 0
	}
	now := time.Now()
	if now.UnixNano() >= m.nextRefresh.Load() {
		m.mu.Lock()
		if now.UnixNano() >= m.nextRefresh.Load() {
			waits, _ := m.DB.LockWaits()
			delta := waits - m.lastWaits
			if delta < 0 {
				// The underlying counter moved backwards (a fresh DB
				// swapped in behind the monitor): a negative rate would
				// permanently drag the blend down, so treat a reset as
				// zero waits this window.
				delta = 0
			}
			dt := now.Sub(m.lastAt)
			if dt > maxRateWindow {
				dt = maxRateWindow
			}
			if dt > 0 {
				m.rateBits.Store(math.Float64bits(float64(delta) / dt.Seconds()))
			}
			m.lastWaits, m.lastAt = waits, now
			m.nextRefresh.Store(now.Add(rateWindow).UnixNano())
		}
		m.mu.Unlock()
	}
	return math.Float64frombits(m.rateBits.Load())
}
