package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p percent
// of the samples at or below it. It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailLadder lists the tail percentiles a latency report may quote,
// ascending, each with the share of samples beyond it as one in so
// many (whole numbers, so the sample-count rule below is exact).
var tailLadder = []struct {
	pct   float64
	oneIn int
}{{90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// minBeyond is how many samples must lie beyond a percentile for it to
// be quoted: with fewer, the figure is set by a handful of outliers
// and does not repeat.
const minBeyond = 10

// highestPercentile returns the highest entry of tailLadder with at
// least minBeyond of n samples beyond it, or 0 when even the lowest
// has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n >= minBeyond*t.oneIn {
			best = t.pct
		}
	}
	return best
}

// latencySummary describes one class's latency samples.
type latencySummary struct {
	N      int     `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// HighestPct is the highest percentile these samples support
	// (highestPercentile) and HighestMs its value; 0 when none.
	HighestPct float64 `json:"highest_pct"`
	HighestMs  float64 `json:"highest_ms"`
}

// summarize sorts ms in place.
func summarize(ms []float64) latencySummary {
	s := latencySummary{N: len(ms)}
	if len(ms) == 0 {
		return s
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	s.MeanMs = sum / float64(len(ms))
	s.P50Ms = percentile(ms, 50)
	s.P95Ms = percentile(ms, 95)
	s.P99Ms = percentile(ms, 99)
	if p := highestPercentile(len(ms)); p > 0 {
		s.HighestPct, s.HighestMs = p, percentile(ms, p)
	}
	return s
}
