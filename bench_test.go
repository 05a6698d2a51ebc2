package pyxis_test

// One benchmark per paper table/figure, plus the ablations.
// `go test -bench .` regenerates every artifact at a reduced scale and
// reports the headline metrics; `go run ./cmd/pyxis-bench -full` runs
// the paper-scale sweeps. Absolute numbers come from the calibrated
// simulator; the *shapes* are asserted by the unit tests in
// internal/bench.

import (
	"testing"
	"time"

	"pyxis/internal/bench"
	"pyxis/internal/solver"
)

func reportTable(b *testing.B, t *bench.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", t)
}

// BenchmarkFig9 — TPC-C latency/CPU/network sweep, 16-core DB.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig9(bench.QuickScale())
		reportTable(b, t, err)
	}
}

// BenchmarkFig10 — TPC-C sweep, 3-core DB, low budget.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig10(bench.QuickScale())
		reportTable(b, t, err)
	}
}

// BenchmarkFig11 — dynamic partition switching under a load spike.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig11(bench.QuickScale())
		reportTable(b, t, err)
	}
}

// BenchmarkFig12 — TPC-W browsing mix, 16-core DB.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig12(bench.QuickScale())
		reportTable(b, t, err)
	}
}

// BenchmarkFig13 — TPC-W browsing mix, 3-core DB.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig13(bench.QuickScale())
		reportTable(b, t, err)
	}
}

// BenchmarkFig14 — microbenchmark 2 partition × load table.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig14(bench.QuickScale())
		reportTable(b, t, err)
	}
}

// ---------------------------------------------------------------------------
// Microbenchmark 1 (§7.3): real wall-clock overhead of the Pyxis
// execution-block runtime vs native Go on a single-sided linked list.
// The paper measured ~6×.
// ---------------------------------------------------------------------------

func BenchmarkMicro1Pyxis(b *testing.B) {
	part, err := bench.Micro1Partition()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Micro1Pyxis(part, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro1Native(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Micro1Native(1000)
	}
}

// BenchmarkMicro1Overhead reports the measured Pyxis/native ratio as a
// custom metric (the paper's "6×").
func BenchmarkMicro1Overhead(b *testing.B) {
	part, err := bench.Micro1Partition()
	if err != nil {
		b.Fatal(err)
	}
	const n = 2000
	measure := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	var pyx, nat time.Duration
	for i := 0; i < b.N; i++ {
		pyx += measure(func() {
			if _, err := bench.Micro1Pyxis(part, n); err != nil {
				b.Fatal(err)
			}
		})
		nat += measure(func() { bench.Micro1Native(n) })
	}
	if nat > 0 {
		b.ReportMetric(float64(pyx)/float64(nat), "x-overhead")
	}
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkAblationReorder measures the §4.4 statement reordering on a
// program whose console and database statements interleave: without
// reordering every adjacent pair is a placement change; with it, each
// side coalesces into one run.
func BenchmarkAblationReorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reordered, unordered, err := bench.InterleavedReorderAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(reordered), "transfers-reordered")
		b.ReportMetric(float64(unordered), "transfers-unordered")
		if reordered >= unordered {
			b.Fatalf("reordering should reduce transfers: %d >= %d", reordered, unordered)
		}
	}
}

// BenchmarkAblationSolvers compares the quality and speed of Auto's two
// halves on the TPC-C partition graph at half the total load, where the
// Lagrangian min cut leaves a gap the exact search closes.
func BenchmarkAblationSolvers(b *testing.B) {
	for _, s := range []struct {
		name  string
		solve func(*solver.Problem) (*solver.Solution, error)
	}{
		{"mincut-lagrangian", (&solver.MinCutSolver{}).Solve},
		{"branch-and-bound", (&solver.BranchBound{MaxNodes: 200}).Solve},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obj, err := bench.TPCCSolverObjective(s.solve, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(obj*1e3, "objective-ms")
			}
		})
	}
}

// BenchmarkAblationWeights contrasts the paper's bandwidth-charged
// data edges with (incorrectly) latency-charged ones: charging latency
// per data edge inflates the objective and changes placements.
func BenchmarkAblationWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		correct, naive, err := bench.TPCCWeightAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(correct, "dbstmts-bandwidth-weighted")
		b.ReportMetric(naive, "dbstmts-latency-weighted")
	}
}
