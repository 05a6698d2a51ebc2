package runtime

import (
	"sync"

	"pyxis/internal/rpc"
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
