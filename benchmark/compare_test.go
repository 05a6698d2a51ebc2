package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictAtInsideAndOutsideEachBound(t *testing.T) {
	const base = 1000.0
	for _, m := range endToEndMetrics {
		worse := 1.0 // direction in which the value gets worse
		if m.Better == higher {
			worse = -1
		}
		step := base * m.Bound
		for _, c := range []struct {
			new  float64
			want string
		}{
			{base, verdictSame},
			{base + worse*step/2, verdictSame},
			{base + worse*step, verdictSame}, // at the bound is still within it
			{base + worse*step*1.01, verdictWorse},
			{base + worse*step*3, verdictWorse},
			{base - worse*step/2, verdictSame},
			{base - worse*step, verdictSame},
			{base - worse*step*1.01, verdictBetter},
		} {
			if got := verdict(m, base, c.new); got != c.want {
				t.Errorf("%s (bound %v, %s is better): base %v new %v judged %s, want %s", m.Name, m.Bound, m.Better, base, c.new, got, c.want)
			}
		}
	}
}

func fakeResult(scale float64) *runResult {
	r := &runResult{Seed: 1, Seconds: 20}
	for _, w := range workloads {
		wr := &workloadResult{Workload: w.Name, Correct: true, Attempted: 1000,
			EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, m := range endToEndMetrics {
			wr.EndToEnd[m.Name] = metricValue{Value: 100 * scale, Unit: m.Unit}
		}
		for _, name := range exactCounts {
			wr.PerLayer[name] = metricValue{Value: 7, Unit: "count"}
		}
		r.Workloads = append(r.Workloads, wr)
	}
	return r
}

func TestCompareResultsExitCode(t *testing.T) {
	// The test's own bounds, so that retuning BENCHMARK.json does not
	// move it: 5 % up is worse for the first, better for the second
	// and the same for the third.
	metrics := []metricDef{
		{Name: "round_trips_per_txn", Better: lower, Bound: 0.03},
		{Name: "tput_txn_s", Better: higher, Bound: 0.03},
		{Name: "setup_s", Better: lower, Bound: 0.10},
	}
	base := fakeResult(1)
	if code := compareResults(io.Discard, metrics, base, fakeResult(1.02)); code != 0 {
		t.Errorf("2 %% apart: exit code %d, want 0", code)
	}
	var out strings.Builder
	if code := compareResults(&out, metrics, base, fakeResult(1.05)); code != 1 {
		t.Errorf("5 %% apart: exit code %d, want 1", code)
	}
	for _, v := range []string{verdictWorse, verdictBetter} {
		if rows := strings.Count(out.String(), v); rows != len(workloads) {
			t.Errorf("%d rows judged %s, want %d:\n%s", rows, v, len(workloads), out.String())
		}
	}
	failed := fakeResult(1)
	failed.Workloads[0].Failed = 1
	if code := compareResults(io.Discard, metrics, base, failed); code != 1 {
		t.Errorf("a failed operation: exit code %d, want 1", code)
	}
	drift := fakeResult(1)
	drift.Workloads[1].PerLayer["pdg.nodes"] = metricValue{Value: 8, Unit: "count"}
	if code := compareResults(io.Discard, metrics, base, drift); code != 1 {
		t.Errorf("an exact count that differs: exit code %d, want 1", code)
	}
	missing := fakeResult(1)
	missing.Workloads = missing.Workloads[1:]
	if code := compareResults(io.Discard, metrics, base, missing); code != 1 {
		t.Errorf("a workload missing from the new result: exit code %d, want 1", code)
	}
}

func TestCompareRefusesQuickResults(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", benchmarkSpec{EndToEnd: endToEndMetrics})
	full := write("full.json", fakeResult(1))
	quick := fakeResult(1)
	quick.Quick = true
	quickPath := write("quick.json", quick)
	if code := compareFiles(io.Discard, spec, full, full); code != 0 {
		t.Errorf("a result against itself: exit code %d, want 0", code)
	}
	if code := compareFiles(io.Discard, spec, full, quickPath); code != 2 {
		t.Errorf("a quick result: exit code %d, want 2", code)
	}
	if code := compareFiles(io.Discard, spec, quickPath, full); code != 2 {
		t.Errorf("a quick base: exit code %d, want 2", code)
	}
}
