package main

import (
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the
// driver and -compare read, in step with the tables the benchmark
// reports from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	var spec struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end = %+v\nthe benchmark reports %+v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer = %+v\nthe benchmark reports %+v", spec.PerLayer, perLayerMetrics)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is listed as %q (%s), the benchmark has %q (%s)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || len(spec.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", spec.Paths, spec.RunSeconds, spec.Command)
	}
}
