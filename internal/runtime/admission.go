package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"pyxis/internal/rpc"
)

// AdmissionController makes the server REFUSE work from the same
// saturation signals LoadMonitor already samples, instead of merely
// reporting them: it implements rpc.AdmissionPolicy, gating both
// session creation and per-call queueing on the blended load — the
// per-session mux queue depth, the sqldb lock-wait rate, the CPU
// proxy, plus any external load — and on a hard concurrent-session
// cap. Refusals travel as the typed rpc.ErrOverloaded shed, so every
// existing client backoff path (DynamicClient, bench drivers,
// pyxis-app) just works.
//
// The load gate is hysteretic: shedding engages when the blended load
// crosses HighLoad and releases only once it falls below LowLoad, so
// admission cannot flap call-by-call around a single threshold (the
// same dead-band idea as Switcher.Hysteresis, applied server-side).
// One controller is shared by every connection of a server, so its
// session accounting is server-wide.
type AdmissionController struct {
	cfg AdmissionConfig
	mon *LoadMonitor

	sessions atomic.Int64 // currently admitted sessions (server-wide)
	shedding atomic.Bool  // hysteresis state: true = refusing

	admittedSessions atomic.Int64
	shedSessions     atomic.Int64
	shedCalls        atomic.Int64
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
	// releases (default 60). Values >= HighLoad are clamped under it —
	// an inverted band would flap exactly like no band at all.
	LowLoad float64
}

// shedQueue is the per-session queue depth tolerated WHILE shedding:
// admitted sessions keep making one-call-at-a-time progress, but a
// session trying to pipeline into a saturated server is shed early
// instead of being allowed to fill its structural queue.
const shedQueue = rpc.SessionQueueDepth / 4

// NewAdmissionController builds a controller over mon's saturation
// signal. mon may be nil, leaving only the MaxSessions gate active
// (shedding then never engages).
func NewAdmissionController(mon *LoadMonitor, cfg AdmissionConfig) *AdmissionController {
	if cfg.HighLoad <= 0 {
		cfg.HighLoad = 85
	}
	if cfg.LowLoad <= 0 {
		cfg.LowLoad = 60
	}
	if cfg.LowLoad >= cfg.HighLoad {
		cfg.LowLoad = cfg.HighLoad - 1
	}
	return &AdmissionController{cfg: cfg, mon: mon}
}

// refresh re-evaluates the hysteresis state from the current blended
// load. queueLen rides into the monitor's blend the same way it rides
// reply-time samples, so a deep session queue pushes toward shedding.
func (a *AdmissionController) refresh(queueLen int) {
	if a.mon == nil {
		return
	}
	rep, ok := a.mon.Sample(queueLen)
	if !ok {
		return
	}
	if a.shedding.Load() {
		if rep.Load < a.cfg.LowLoad {
			a.shedding.Store(false)
		}
	} else if rep.Load > a.cfg.HighLoad {
		a.shedding.Store(true)
	}
}

// AdmitSession implements rpc.AdmissionPolicy: it refuses new sessions
// while the server is saturated (hysteresis state) or at the session
// cap. Admission reserves a slot that SessionClosed releases.
func (a *AdmissionController) AdmitSession(sid uint32) error {
	a.refresh(0)
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

// AdmitCall implements rpc.AdmissionPolicy: while shedding, calls
// arriving at a session whose queue already holds shedQueue requests
// are refused — the tightened bound keeps admitted sessions moving
// while preventing queue growth toward the structural limit.
func (a *AdmissionController) AdmitCall(sid uint32, queueLen int) error {
	a.refresh(queueLen)
	if a.shedding.Load() && queueLen >= shedQueue {
		a.shedCalls.Add(1)
		return fmt.Errorf("admission: server saturated, session %d queue at %d (shed bound %d)", sid, queueLen, shedQueue)
	}
	return nil
}

// SessionClosed implements rpc.AdmissionPolicy: it releases the slot
// AdmitSession reserved.
func (a *AdmissionController) SessionClosed(sid uint32) { a.sessions.Add(-1) }

// Shedding reports whether the load gate is currently refusing work.
func (a *AdmissionController) Shedding() bool { return a.shedding.Load() }

// Sessions returns the number of currently admitted sessions.
func (a *AdmissionController) Sessions() int64 { return a.sessions.Load() }

// AdmissionStats snapshots a controller's counters.
type AdmissionStats struct {
	Sessions         int64 // currently admitted
	AdmittedSessions int64 // admissions granted over the lifetime
	ShedSessions     int64 // session admissions refused
	ShedCalls        int64 // calls refused on admitted sessions
	Shedding         bool  // current hysteresis state
}

// Stats returns a snapshot of the controller's counters.
func (a *AdmissionController) Stats() AdmissionStats {
	return AdmissionStats{
		Sessions:         a.sessions.Load(),
		AdmittedSessions: a.admittedSessions.Load(),
		ShedSessions:     a.shedSessions.Load(),
		ShedCalls:        a.shedCalls.Load(),
		Shedding:         a.shedding.Load(),
	}
}

var _ rpc.AdmissionPolicy = (*AdmissionController)(nil)

// maxShedBackoffStep caps the linear component of the shed backoff so
// deep retry chains wait tens of milliseconds, not seconds.
const maxShedBackoffStep = 50

// ShedBackoff returns how long to sleep before retry attempt
// (0-based) after an rpc.ErrOverloaded shed: a linearly growing base
// plus a uniform random jitter of up to one base, so a cohort of
// sessions shed together does not retry in lockstep and re-flood the
// server at the exact same instant.
func ShedBackoff(attempt int) time.Duration {
	step := attempt + 1
	if step > maxShedBackoffStep {
		step = maxShedBackoffStep
	}
	base := time.Duration(step) * time.Millisecond
	return base + time.Duration(rand.Int63n(int64(base)))
}

// shedRetryLimit is how many times RetryOverloaded retries a shed call.
const shedRetryLimit = 50

// RetryOverloaded runs call, absorbing rpc.ErrOverloaded results with
// ShedBackoff sleeps for up to shedRetryLimit retries; any other
// outcome returns immediately. It returns how many sheds were absorbed
// alongside the final error, counting the one that spends the limit —
// the one shed-retry loop shared by every client of a gated server
// (an overloaded reply means the server refused the work before any
// state existed, so retrying is always safe).
func RetryOverloaded(call func() error) (sheds int64, err error) {
	for attempt := 0; ; attempt++ {
		err = call()
		if err == nil || !errors.Is(err, rpc.ErrOverloaded) {
			return sheds, err
		}
		sheds++
		if attempt >= shedRetryLimit {
			return sheds, err
		}
		time.Sleep(ShedBackoff(attempt))
	}
}
