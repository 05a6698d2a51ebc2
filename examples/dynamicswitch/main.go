// Dynamic switching (paper §6.3): two partitions of the same program —
// stored-procedure-like (high budget) and client-side-queries-like
// (low budget) — deployed side by side behind a load-driven switcher.
// As reported database CPU load crosses the 40% threshold, the EWMA
// shifts new entry invocations to the low-budget partition, and back.
package main

import (
	"fmt"
	"log"

	"pyxis/internal/bench"
	"pyxis/internal/runtime"
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

	db := cfg.Load()
	depHigh := high.Deploy(db, runtime.Options{})
	depLow := low.Deploy(db, runtime.Options{})

	oidHigh, err := depHigh.Client.NewObject("TPCC")
	if err != nil {
		log.Fatal(err)
	}
	oidLow, err := depLow.Client.NewObject("TPCC")
	if err != nil {
		log.Fatal(err)
	}

	sw := runtime.NewSwitcher() // alpha 0.2, threshold 40%
	dyn := &runtime.DynamicClient{High: depHigh.Client, Low: depLow.Client, Switcher: sw}

	// Simulated load reports arriving every "10 seconds": idle, spike, recovery.
	// (The real stack piggy-backs these on mux replies; see
	// internal/bench.WallDynamic and pyxis-bench -exp dynamic-wall.)
	loadTrace := []float64{5, 8, 10, 95, 96, 97, 95, 12, 8, 5, 5, 5}
	run := func(k int64) {
		// CallEntry picks per call, maps the pick to the matching heap's
		// OID, and counts the pick on completion — sheds and failures
		// never inflate the mix.
		r, err := dyn.CallEntry("TPCC.newOrder", oidHigh, oidLow,
			val.IntV(1), val.IntV(k%10+1), val.IntV(k%30+1),
			val.IntV(4), val.IntV(k*13+7), val.IntV(1000), val.BoolV(false))
		if err != nil {
			log.Fatal(err)
		}
		which := "high"
		if r.Low {
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

	lowN, highN := dyn.Picks()
	fmt.Printf("\nserved %d transactions via low-budget, %d via high-budget partitions\n", lowN, highN)
	_ = sqldb.Open // keep import shape stable
}
