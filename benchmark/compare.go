package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

const (
	verdictBetter = "better"
	verdictSame   = "same"
	verdictWorse  = "worse"
)

// verdict judges new against base: worse when it is worse by more than
// bound as a share of base, better when it is better by more than
// bound, and same otherwise.
func verdict(m metricDef, base, new float64) string {
	worsening := (new - base) / base
	if m.Better == higher {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return verdictWorse
	case worsening < -m.Bound:
		return verdictBetter
	}
	return verdictSame
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the process exit code: 1 when any row is worse, an exact
// count differs or an operation failed, 2 when the files cannot be
// compared.
func compareFiles(w io.Writer, specPath, basePath, newPath string) int {
	var spec benchmarkSpec
	var base, new runResult
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {newPath, &new}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if base.Quick || new.Quick {
		fmt.Fprintln(os.Stderr, "benchmark: a -quick result is a smoke test, not a measurement; refusing to compare it")
		return 2
	}
	if len(spec.EndToEnd) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s lists no end_to_end metrics\n", specPath)
		return 2
	}
	return compareResults(w, spec.EndToEnd, &base, &new)
}

func compareResults(w io.Writer, metrics []metricDef, base, new *runResult) int {
	newBy := map[string]*workloadResult{}
	for _, r := range new.Workloads {
		newBy[r.Workload] = r
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s  %-6s %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, b := range base.Workloads {
		n := newBy[b.Workload]
		if n == nil {
			fmt.Fprintf(w, "%-14s missing from the new result\n", b.Workload)
			code = 1
			continue
		}
		for _, m := range metrics {
			bv, bok := b.EndToEnd[m.Name]
			nv, nok := n.EndToEnd[m.Name]
			if !bok || !nok {
				fmt.Fprintf(w, "%-14s %-22s missing from a result\n", b.Workload, m.Name)
				code = 1
				continue
			}
			v := verdict(m, bv.Value, nv.Value)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %9.4f  %-6.2f %s\n",
				b.Workload, m.Name, bv.Value, nv.Value, nv.Value/bv.Value, m.Bound, v)
		}
		for _, name := range exactCounts {
			bv, bok := b.PerLayer[name]
			nv, nok := n.PerLayer[name]
			if !bok || !nok {
				continue
			}
			v := "identical"
			if bv.Value != nv.Value {
				v, code = "DIFFERS", 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.0f %14.0f %9s  %-6s %s\n", b.Workload, name, bv.Value, nv.Value, "", "exact", v)
		}
		fmt.Fprintf(w, "%-14s %-22s %14.6f %14.6f  (%d of %d, %d of %d)\n", b.Workload, "failed_share",
			failedShare(b), failedShare(n), b.Failed, b.Attempted, n.Failed, n.Attempted)
		if b.Failed > 0 || n.Failed > 0 {
			code = 1
		}
	}
	return code
}

func failedShare(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
