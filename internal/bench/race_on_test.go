//go:build race

package bench

// raceEnabled reports whether this build is race-detector-instrumented.
// The detector's happens-before bookkeeping serializes part of every
// synchronization operation, flattening parallel speedup, so
// speedupEnforced does not bind the speedup bounds under it.
const raceEnabled = true
