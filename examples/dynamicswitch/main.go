// Dynamic switching (paper §6.3): two partitions of the same program —
// stored-procedure-like (high budget) and client-side-queries-like
// (low budget) — served side by side by one database server, with a
// load-driven switcher on the application side. As reported database
// CPU load crosses the 40% threshold, the EWMA shifts new entry
// invocations to the low-budget partition, and back.
package main

import (
	"fmt"
	"log"

	"pyxis/internal/bench"
	"pyxis/internal/deploy"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

func main() {
	cfg := bench.DefaultTPCC()
	high, err := cfg.PyxisPartition(1.0)
	if err != nil {
		log.Fatal(err)
	}
	low, err := cfg.PyxisPartition(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("high-budget:", high.Describe())
	fmt.Println("low-budget: ", low.Describe())

	// One shard serving both partitions over loopback TCP. It reports no
	// load of its own, so the scripted trace below is the only signal.
	tier, err := deploy.Up(deploy.Topology{High: high, Low: low,
		NewDB: func(int) (*sqldb.DB, error) { return cfg.Load(), nil }})
	if err != nil {
		log.Fatal(err)
	}
	defer tier.Close()
	client, err := tier.Open(0, "TPCC")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	sw := tier.Router.Switcher(0) // alpha 0.2, threshold 40%

	// Simulated load reports arriving every "10 seconds": idle, spike, recovery.
	// (The real stack piggy-backs these on mux replies; see
	// TestParallelDynamicSwitchingRamp in internal/bench.)
	loadTrace := []float64{5, 8, 10, 95, 96, 97, 95, 12, 8, 5, 5, 5}
	run := func(k int64) {
		// Call picks a partition per call and counts it on completion —
		// sheds and failures never inflate the mix.
		before := client.Stats()
		_, err := client.Call("TPCC.newOrder",
			val.IntV(1), val.IntV(k%10+1), val.IntV(k%30+1),
			val.IntV(4), val.IntV(k*13+7), val.IntV(1000), val.BoolV(false))
		if err != nil {
			log.Fatal(err)
		}
		which := "high"
		if client.Stats().Low > before.Low {
			which = "low"
		}
		fmt.Printf("  txn %2d served by %s-budget partition\n", k, which)
	}

	txn := int64(0)
	for i, load := range loadTrace {
		ewma := sw.Observe(load)
		fmt.Printf("t=%3ds load=%.0f%% ewma=%.1f%% -> use low-budget: %v\n",
			i*10, load, ewma, sw.UseLowBudget())
		for j := 0; j < 2; j++ {
			run(txn)
			txn++
		}
	}

	st := client.Stats()
	fmt.Printf("\nserved %d transactions via low-budget, %d via high-budget partitions\n", st.Low, st.High)
}
