package bench

import "testing"

func TestSwitcherEWMA(t *testing.T) {
	sw := &switcher{}
	if sw.UseLowBudget() {
		t.Error("fresh switcher should use high budget")
	}
	sw.Observe(10)
	if sw.UseLowBudget() {
		t.Error("low load should keep high budget")
	}
	// Sustained high load crosses the 40% threshold via EWMA.
	var ewma float64
	for i := 0; i < 5; i++ {
		ewma = sw.Observe(95)
	}
	if !sw.UseLowBudget() {
		t.Errorf("sustained load should switch (ewma=%v)", ewma)
	}
	// A single low sample must not flip back immediately (damping).
	if ewma = sw.Observe(5); ewma < 10 {
		t.Errorf("EWMA dropped too fast: %v", ewma)
	}
	for i := 0; i < 10; i++ {
		sw.Observe(5)
	}
	if sw.UseLowBudget() {
		t.Error("sustained recovery should switch back")
	}

	// Exact EWMA math: L = a*L + (1-a)*S with a = 0.2.
	s2 := &switcher{}
	s2.Observe(100) // first sample initializes
	if got := s2.Observe(0); got != 20 {
		t.Errorf("ewma = %v, want 20", got)
	}
	// An average exactly at the threshold keeps the current choice.
	for _, low := range []bool{false, true} {
		at := &switcher{ewma: switchThreshold, started: true, low: low}
		if at.Observe(switchThreshold); at.UseLowBudget() != low {
			t.Errorf("an average at the threshold flipped low=%v", low)
		}
	}
}
