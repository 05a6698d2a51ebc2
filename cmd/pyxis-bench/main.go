// Command pyxis-bench regenerates the paper's evaluation artifacts
// (Figs. 9–14 and the microbenchmarks) on the deterministic simulator,
// and runs the wall-clock experiments of bench.Experiments against
// their gates.
//
// Usage:
//
//	pyxis-bench                 # quick scale, all experiments
//	pyxis-bench -full           # paper-scale sweeps (slower)
//	pyxis-bench -exp fig9,fig14 # subset
//	pyxis-bench -exp shard-wall -json   # also write BENCH_shard-wall.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pyxis/internal/bench"
)

// fatal reports why experiment failed and exits with code.
func fatal(code int, experiment string, problem any) {
	fmt.Fprintf(os.Stderr, "pyxis-bench: %s: %v\n", experiment, problem)
	os.Exit(code)
}

func main() {
	defaults := "fig9,fig10,fig11,fig12,fig13,fig14,micro1"
	for _, e := range bench.Experiments() {
		defaults += "," + e.Name
	}
	var (
		full    = flag.Bool("full", false, "run paper-scale sweeps (slower)")
		exps    = flag.String("exp", defaults, "comma-separated experiments")
		clients = flag.Int("clients", 16, "max concurrent sessions for the wall-clock experiments")
		txns    = flag.Int("txns", 200, "transactions per client for the wall-clock experiments")
		pool    = flag.Int("pool", 4, "mux connections per wire for the pool experiment")
		shards  = flag.Int("shards", 2, "shard servers for the shard-wall and rebalance-wall experiments")
		jsonOut = flag.Bool("json", false, "write each wall-clock experiment's results and skipped gates to BENCH_<experiment>.json")
	)
	flag.Parse()
	args := bench.Args{Clients: *clients, Txns: *txns, Pool: *pool, Shards: *shards}
	scale := bench.QuickScale()
	if *full {
		scale = bench.FullScale()
	}
	figures := map[string]func(bench.Scale) (*bench.Table, error){
		"fig9": bench.Fig9, "fig10": bench.Fig10, "fig11": bench.Fig11,
		"fig12": bench.Fig12, "fig13": bench.Fig13, "fig14": bench.Fig14,
	}
	wall := map[string]bench.Experiment{}
	for _, e := range bench.Experiments() {
		wall[e.Name] = e
	}

	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(name)
		if e, ok := wall[name]; ok {
			runWall(e, args, *jsonOut)
		} else if fig, ok := figures[name]; ok {
			start := time.Now()
			table, err := fig(scale)
			if err != nil {
				fatal(1, name, err)
			}
			fmt.Println(table)
			fmt.Printf("(%s generated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		} else if name == "micro1" {
			runMicro1()
		} else {
			fatal(2, name, "unknown experiment")
		}
	}
}

// runWall checks the flags one wall-clock experiment reads, runs it,
// judges its results against the experiment's gates and — under -json
// — writes the report, the gates that did not bind on this host
// included. Any gate failure exits non-zero.
func runWall(e bench.Experiment, args bench.Args, jsonOut bool) {
	if err := e.Validate(args); err != nil {
		fatal(2, e.Name, err)
	}
	results, err := e.Run(os.Stdout, args)
	if err != nil {
		fatal(1, e.Name, err)
	}
	failed, skipped := e.Judge(results, args)
	for _, s := range skipped {
		fmt.Printf("(not enforced: %s)\n", s)
	}
	if jsonOut {
		path, err := bench.SaveReport("", e.Name, results, skipped...)
		if err != nil {
			fatal(1, e.Name, err)
		}
		fmt.Printf("(wrote %s)\n", path)
	}
	for _, f := range failed {
		fmt.Fprintf(os.Stderr, "pyxis-bench: %s: GATE FAILED: %s\n", e.Name, f)
	}
	if len(failed) > 0 {
		fatal(1, e.Name, fmt.Sprintf("%d gate failures", len(failed)))
	}
	fmt.Println()
}

// runMicro1 measures the real execution-block overhead (paper §7.3).
func runMicro1() {
	part, err := bench.Micro1Partition()
	if err != nil {
		fatal(1, "micro1", err)
	}
	const n = 20000
	start := time.Now()
	if _, err := bench.Micro1Pyxis(part, n); err != nil {
		fatal(1, "micro1", err)
	}
	pyx := time.Since(start)
	start = time.Now()
	bench.Micro1Native(n)
	nat := time.Since(start)
	fmt.Println("== Microbenchmark 1: execution-block overhead (single-sided linked list) ==")
	fmt.Printf("pyxis runtime: %v   native Go: %v   overhead: %.1fx\n", pyx, nat, float64(pyx)/float64(nat))
	fmt.Println("note: the paper measured ~6x against JVM-native code; a Go block interpreter vs compiled Go is a harsher baseline")
	fmt.Println()
}
