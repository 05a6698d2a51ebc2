package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"pyxis/internal/rpc"
)

// AdmissionController is a server's concurrent-session cap: it
// implements rpc.AdmissionPolicy, deciding once per session, when it
// opens, whether a slot is free. A session it admitted runs every
// later call. Refusals travel as the typed rpc.ErrOverloaded shed,
// which the clients that open sessions (deploy.App.Open's callers:
// pyxis-app and the tests) retry with RetryOverloaded. One controller
// is shared by every connection of a server, so its session accounting
// is server-wide.
type AdmissionController struct {
	maxSessions int64

	sessions atomic.Int64 // currently admitted sessions (server-wide)

	admittedSessions atomic.Int64
	shedSessions     atomic.Int64
}

// NewAdmissionController returns a controller that admits at most
// maxSessions concurrent sessions. A server with no cap installs no
// controller.
func NewAdmissionController(maxSessions int) *AdmissionController {
	return &AdmissionController{maxSessions: int64(maxSessions)}
}

// AdmitSession implements rpc.AdmissionPolicy: it refuses a new
// session at the cap. Admission reserves a slot that SessionClosed
// releases.
func (a *AdmissionController) AdmitSession(sid uint32) error {
	for {
		n := a.sessions.Load()
		if n >= a.maxSessions {
			a.shedSessions.Add(1)
			return fmt.Errorf("admission: %d sessions at cap %d, session %d refused", n, a.maxSessions, sid)
		}
		if a.sessions.CompareAndSwap(n, n+1) {
			a.admittedSessions.Add(1)
			return nil
		}
	}
}

// SessionClosed implements rpc.AdmissionPolicy: it releases the slot
// AdmitSession reserved.
func (a *AdmissionController) SessionClosed(sid uint32) { a.sessions.Add(-1) }

// AdmissionStats snapshots a controller's counters.
type AdmissionStats struct {
	Sessions         int64 // currently admitted
	AdmittedSessions int64 // admissions granted over the lifetime
	ShedSessions     int64 // session admissions refused
}

// Stats returns a snapshot of the controller's counters.
func (a *AdmissionController) Stats() AdmissionStats {
	return AdmissionStats{
		Sessions:         a.sessions.Load(),
		AdmittedSessions: a.admittedSessions.Load(),
		ShedSessions:     a.shedSessions.Load(),
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
