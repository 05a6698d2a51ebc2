package runtime

import (
	"errors"
	"sync"
	"sync/atomic"

	"pyxis/internal/rpc"
	"pyxis/internal/val"
)

// Switcher implements the dynamic partitioning selection of paper
// §6.3: the database server reports its load (here piggy-backed on
// every mux reply rather than a 10-second side channel); the
// application server keeps an exponentially weighted moving average
// L_t = α·L_{t-1} + (1-α)·S_t and uses a low-CPU-budget partitioning
// while L_t exceeds the threshold, a high-budget one otherwise. The
// EWMA damps oscillation between deployment modes; the optional
// hysteresis band kills the residual flapping the EWMA alone cannot
// (an average hovering exactly at the threshold).
type Switcher struct {
	// Alpha is the EWMA weight on history (paper: 0.2).
	Alpha float64
	// Threshold is the load percentage above which the low-budget
	// partitioning is selected (paper: 40).
	Threshold float64
	// Hysteresis is the half-width δ of the dead band around
	// Threshold: the switcher flips to low-budget only when the EWMA
	// exceeds Threshold+δ and back to high-budget only when it drops
	// below Threshold−δ; in between it keeps its current choice. The
	// default 0 preserves the paper's single-threshold behavior.
	Hysteresis float64

	mu      sync.Mutex
	ewma    float64
	started bool
	low     bool
}

// NewSwitcher returns a switcher with the paper's constants
// (α = 0.2, threshold = 40%, no hysteresis).
func NewSwitcher() *Switcher {
	return &Switcher{Alpha: 0.2, Threshold: 40}
}

// Observe folds one load sample (percent, 0–100) into the EWMA,
// re-evaluates the high/low choice, and returns the new average.
func (s *Switcher) Observe(load float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.ewma = load
		s.started = true
	} else {
		s.ewma = s.Alpha*s.ewma + (1-s.Alpha)*load
	}
	// A negative δ would invert the dead band into a flap amplifier
	// (both transitions firing on the same EWMA); clamp to 0.
	h := s.Hysteresis
	if h < 0 {
		h = 0
	}
	if s.low {
		if s.ewma < s.Threshold-h {
			s.low = false
		}
	} else if s.ewma > s.Threshold+h {
		s.low = true
	}
	return s.ewma
}

// ObserveReport folds a piggy-backed DB load report into the EWMA —
// the glue between a MuxClient's SetOnLoad sink and the switcher.
func (s *Switcher) ObserveReport(rep rpc.LoadReport) { s.Observe(rep.Load) }

// Load returns the current EWMA.
func (s *Switcher) Load() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ewma
}

// UseLowBudget reports whether the low-CPU-budget partitioning should
// serve the next request.
func (s *Switcher) UseLowBudget() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.low
}

// DynamicClient routes each entry invocation of one logical client
// session to one of two live deployments of the same program — one
// generated with a high DB-CPU budget (stored-procedure-like) and one
// with a low budget (client-side-query like) — according to the
// shared switcher. This mirrors the paper's TPC-C dynamic switching
// experiment, which pre-generates exactly two partitionings. Like the
// clients it wraps, a DynamicClient serves a single logical thread of
// control, but its counters are atomic so many DynamicClients can
// share one Switcher while a coordinator reads the aggregate mix.
type DynamicClient struct {
	High, Low *Client
	Switcher  *Switcher

	lowPicks  atomic.Int64 // completed low-budget calls
	highPicks atomic.Int64 // completed high-budget calls
	sheds     atomic.Int64 // calls shed by an overloaded server
	fails     atomic.Int64 // calls that failed for any other reason
}

// Pick chooses the deployment for the next call and returns it with a
// completion callback: invoke done(err) once the call finishes. Only
// completed calls count toward the pick mix — a call the server shed
// (rpc.ErrOverloaded) tallies as a shed and any other failure as an
// error, so retried and failed calls never inflate the mix.
func (d *DynamicClient) Pick() (cl *Client, done func(error)) {
	if d.Switcher.UseLowBudget() {
		return d.Low, func(err error) { d.finish(&d.lowPicks, err) }
	}
	return d.High, func(err error) { d.finish(&d.highPicks, err) }
}

func (d *DynamicClient) finish(picks *atomic.Int64, err error) {
	switch {
	case err == nil:
		picks.Add(1)
	case errors.Is(err, rpc.ErrOverloaded):
		d.sheds.Add(1)
	default:
		d.fails.Add(1)
	}
}

// CallResult reports how a routed entry invocation concluded.
type CallResult struct {
	Val val.Value
	// Low reports whether the low-budget deployment served the final
	// attempt.
	Low bool
	// Sheds is the number of overloaded replies absorbed by backoff.
	Sheds int
}

// CallEntry routes one entry invocation through the switcher: it picks
// a deployment per attempt (the EWMA may move between retries), maps
// the pick to that deployment's receiver OID, completes the pick, and
// retries sheds through RetryOverloaded. Non-overload errors return
// immediately — retry policy for application errors (e.g. deadlock
// victims) belongs to the caller.
func (d *DynamicClient) CallEntry(qname string, oidHigh, oidLow val.OID, args ...val.Value) (CallResult, error) {
	var res CallResult
	sheds, err := RetryOverloaded(func() error {
		cl, done := d.Pick()
		res.Low = cl == d.Low
		oid := oidHigh
		if res.Low {
			oid = oidLow
		}
		ret, err := cl.CallEntry(qname, oid, args...)
		done(err)
		res.Val = ret
		return err
	})
	res.Sheds = int(sheds)
	return res, err
}

// Picks returns (completed low-budget calls, completed high-budget
// calls).
func (d *DynamicClient) Picks() (low, high int64) {
	return d.lowPicks.Load(), d.highPicks.Load()
}

// Sheds returns how many calls the server shed under overload.
func (d *DynamicClient) Sheds() int64 { return d.sheds.Load() }

// Errors returns how many calls failed for non-overload reasons.
func (d *DynamicClient) Errors() int64 { return d.fails.Load() }

// Close closes both underlying clients.
func (d *DynamicClient) Close() error {
	err := d.High.Close()
	if lerr := d.Low.Close(); err == nil {
		err = lerr
	}
	return err
}
