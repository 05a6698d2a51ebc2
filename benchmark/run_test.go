package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunWorkloadSmoke drives the whole path once with tiny windows on
// the delayed workload (the only one that exercises the delay pumps):
// set-up with the differential check, the round-trip-order check, an
// untraced and a traced window, probes and the offline pipeline. It
// asserts what must hold at any speed.
func TestRunWorkloadSmoke(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.csv")
	w := workloadByName("tpcc-mid-wan")
	res, err := runWorkload(w, runOpts{
		seed: 3, setups: 2, warmup: 100 * time.Millisecond, window: 600 * time.Millisecond,
		traced: true, probeDiv: 200, spansPath: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	for _, m := range endToEndMetrics {
		if v, ok := res.EndToEnd[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
			t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
		}
	}
	for _, m := range perLayerMetrics {
		if _, ok := res.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer %s is missing", m.Name)
		}
	}
	// Budget 0.5 puts work on both sides: control transfers happen, and
	// each costs at least the injected round trip.
	if rt := res.EndToEnd["round_trips_per_txn"].Value; rt < 2 {
		t.Errorf("round_trips_per_txn = %v at budget 0.5, want several", rt)
	}
	if us := res.PerLayer["rpc.ctl_wire_us_per_call"].Value; us < float64(wanRTT/time.Microsecond) {
		t.Errorf("rpc.ctl_wire_us_per_call = %v us, below the injected round trip of %v", us, wanRTT)
	}
	if ms := res.PerLayer["rpc.rtt_observed_ms"].Value; ms < 2 {
		t.Errorf("rpc.rtt_observed_ms = %v, below the injected 2 ms", ms)
	}
	if res.PerLayer["sqldb.select_us"].Value <= 0 || res.SelfShare["rpc.ctl"] < 50 {
		t.Errorf("sqldb.select_us = %v, rpc.ctl self share = %v %%", res.PerLayer["sqldb.select_us"].Value, res.SelfShare["rpc.ctl"])
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("spans file: %v", err)
	}
}
