package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, // p90 of 99 leaves 9.9 beyond
		{100, 90}, {199, 90}, // p95 of 199 leaves 9.95 beyond
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(1000 - i) // 1000 down to 1: summarize must sort
	}
	s := summarize(ms)
	if s.N != 1000 || s.P50Ms != 500 || s.P95Ms != 950 || s.P99Ms != 990 || s.MeanMs != 500.5 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if s.HighestPct != 99 || s.HighestMs != 990 {
		t.Errorf("highest supported percentile of 1000 samples = p%v %v, want p99 990", s.HighestPct, s.HighestMs)
	}
	if s := summarize(nil); s.N != 0 || s.HighestPct != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}
