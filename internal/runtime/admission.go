package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"pyxis/internal/rpc"
)

// AdmissionController makes the server refuse work from the
// saturation signal LoadMonitor samples: it implements
// rpc.AdmissionPolicy, deciding once per session, when it opens, on a
// hard concurrent-session cap and on the blended load — the sqldb
// lock-wait rate, the CPU proxy, plus any external load. A session it admitted runs every later call. Refusals
// travel as the typed rpc.ErrOverloaded shed, which the clients that
// open sessions (deploy.App.Open's callers: pyxis-app and the
// tests) retry with RetryOverloaded.
//
// The load gate is hysteretic: shedding engages when the blended load
// crosses HighLoad and releases only once it falls below LowLoad, so
// admission cannot flap session-by-session around a single threshold;
// the band moves only on the samples taken as sessions ask to open. One controller is shared by every connection of a
// server, so its session accounting is server-wide.
type AdmissionController struct {
	cfg AdmissionConfig
	mon *LoadMonitor

	sessions atomic.Int64 // currently admitted sessions (server-wide)
	shedding atomic.Bool  // hysteresis state: true = refusing

	admittedSessions atomic.Int64
	shedSessions     atomic.Int64
}

// AdmissionConfig tunes an AdmissionController. Zero values select the
// documented defaults.
type AdmissionConfig struct {
	// MaxSessions caps concurrently admitted sessions server-wide
	// (0 = unlimited). The cap applies regardless of load: it is the
	// structural bound that keeps queue growth finite at saturation.
	MaxSessions int
	// HighLoad is the blended load percent above which shedding
	// engages (default 85).
	HighLoad float64
	// LowLoad is the blended load percent below which shedding
	// releases (default HighLoad − 25, at least HighLoad/2: 60 at the
	// default HighLoad). Values >= HighLoad are clamped under it — an
	// inverted band would flap exactly like no band at all.
	LowLoad float64
}

// NewAdmissionController builds a controller over mon's saturation
// signal. mon may be nil, leaving only the MaxSessions gate active
// (shedding then never engages).
func NewAdmissionController(mon *LoadMonitor, cfg AdmissionConfig) *AdmissionController {
	if cfg.HighLoad <= 0 {
		cfg.HighLoad = 85
	}
	if cfg.LowLoad <= 0 {
		cfg.LowLoad = max(cfg.HighLoad-25, cfg.HighLoad/2)
	}
	if cfg.LowLoad >= cfg.HighLoad {
		cfg.LowLoad = cfg.HighLoad - 1
	}
	return &AdmissionController{cfg: cfg, mon: mon}
}

// refresh re-evaluates the hysteresis state from the current blended
// load.
func (a *AdmissionController) refresh() {
	if a.mon == nil {
		return
	}
	load := a.mon.Load()
	if a.shedding.Load() {
		if load < a.cfg.LowLoad {
			a.shedding.Store(false)
		}
	} else if load > a.cfg.HighLoad {
		a.shedding.Store(true)
	}
}

// AdmitSession implements rpc.AdmissionPolicy: it refuses new sessions
// while the server is saturated (hysteresis state) or at the session
// cap. Admission reserves a slot that SessionClosed releases.
func (a *AdmissionController) AdmitSession(sid uint32) error {
	a.refresh()
	if a.shedding.Load() {
		a.shedSessions.Add(1)
		return fmt.Errorf("admission: server saturated (load over %.0f%%), session %d refused", a.cfg.HighLoad, sid)
	}
	if max := a.cfg.MaxSessions; max > 0 {
		for {
			n := a.sessions.Load()
			if n >= int64(max) {
				a.shedSessions.Add(1)
				return fmt.Errorf("admission: %d sessions at cap %d, session %d refused", n, max, sid)
			}
			if a.sessions.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		a.sessions.Add(1)
	}
	a.admittedSessions.Add(1)
	return nil
}

// SessionClosed implements rpc.AdmissionPolicy: it releases the slot
// AdmitSession reserved.
func (a *AdmissionController) SessionClosed(sid uint32) { a.sessions.Add(-1) }

// Config returns the configuration in force, defaults filled in.
func (a *AdmissionController) Config() AdmissionConfig { return a.cfg }

// Shedding reports whether the load gate is currently refusing work.
func (a *AdmissionController) Shedding() bool { return a.shedding.Load() }

// Sessions returns the number of currently admitted sessions.
func (a *AdmissionController) Sessions() int64 { return a.sessions.Load() }

// AdmissionStats snapshots a controller's counters.
type AdmissionStats struct {
	Sessions         int64 // currently admitted
	AdmittedSessions int64 // admissions granted over the lifetime
	ShedSessions     int64 // session admissions refused
	Shedding         bool  // current hysteresis state
}

// Stats returns a snapshot of the controller's counters.
func (a *AdmissionController) Stats() AdmissionStats {
	return AdmissionStats{
		Sessions:         a.sessions.Load(),
		AdmittedSessions: a.admittedSessions.Load(),
		ShedSessions:     a.shedSessions.Load(),
		Shedding:         a.shedding.Load(),
	}
}

var _ rpc.AdmissionPolicy = (*AdmissionController)(nil)

// maxShedBackoffStep caps the linear component of the shed backoff so
// deep retry chains wait tens of milliseconds, not seconds.
const maxShedBackoffStep = 50

// shedBackoff returns how long to sleep before retry attempt
// (0-based) after an rpc.ErrOverloaded shed: a linearly growing base
// plus a uniform random jitter of up to one base, so a cohort of
// sessions shed together does not retry in lockstep and re-flood the
// server at the exact same instant.
func shedBackoff(attempt int) time.Duration {
	step := attempt + 1
	if step > maxShedBackoffStep {
		step = maxShedBackoffStep
	}
	base := time.Duration(step) * time.Millisecond
	return base + time.Duration(rand.Int63n(int64(base)))
}

// RetryOverloaded runs call, absorbing rpc.ErrOverloaded results with
// shedBackoff sleeps until within has passed; any other outcome
// returns immediately. It returns how many sheds were absorbed
// alongside the final error, counting the one that ends the wait. An
// overloaded reply means the server refused the work before any state
// existed, so retrying is always safe. A gated server sheds nothing but
// session opens, so call is an open (deploy.App.Open), and within is
// how long its caller will wait for capacity to free.
func RetryOverloaded(within time.Duration, call func() error) (sheds int64, err error) {
	deadline := time.Now().Add(within)
	for attempt := 0; ; attempt++ {
		err = call()
		if err == nil || !errors.Is(err, rpc.ErrOverloaded) {
			return sheds, err
		}
		sheds++
		if time.Now().After(deadline) {
			return sheds, err
		}
		time.Sleep(shedBackoff(attempt))
	}
}
