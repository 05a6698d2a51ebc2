package bench

// Fig. 11's switcher (paper §6.3): every load report the simulated
// database server sends folds into an exponentially weighted moving
// average L_t = α·L_{t-1} + (1-α)·S_t, and clients use the low-budget
// partitioning while L_t is over the threshold, the high-budget one
// otherwise. The simulator is single-threaded, so it keeps no lock.
const (
	// switchAlpha is the EWMA weight on history (paper: 0.2).
	switchAlpha = 0.2
	// switchThreshold is the load percentage above which the low-budget
	// partitioning is selected (paper: 40).
	switchThreshold = 40
)

type switcher struct {
	ewma    float64
	started bool
	low     bool
}

// Observe folds one load sample (percent, 0–100) into the EWMA,
// re-evaluates the high/low choice, and returns the new average. An
// average exactly at the threshold keeps the current choice.
func (s *switcher) Observe(load float64) float64 {
	if !s.started {
		s.ewma, s.started = load, true
	} else {
		s.ewma = switchAlpha*s.ewma + (1-switchAlpha)*load
	}
	if s.low {
		s.low = s.ewma >= switchThreshold
	} else {
		s.low = s.ewma > switchThreshold
	}
	return s.ewma
}

// UseLowBudget reports whether the low-budget partitioning should
// serve the next transaction.
func (s *switcher) UseLowBudget() bool { return s.low }
