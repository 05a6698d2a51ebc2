// Command pyxis-bench regenerates the paper's evaluation artifacts:
// Figs. 9–14 on the deterministic simulator, and microbenchmark 1's
// execution-block overhead on the real runtime. The end-to-end
// latency and throughput of a deployed tier are benchmark/'s to
// measure; the wall-clock properties of pools, admission and switching
// are internal/bench's tests.
//
// Usage:
//
//	pyxis-bench                 # quick scale, all experiments
//	pyxis-bench -full           # paper-scale sweeps (slower)
//	pyxis-bench -exp fig9,fig14 # subset
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
	var (
		full = flag.Bool("full", false, "run paper-scale sweeps (slower)")
		exps = flag.String("exp", "fig9,fig10,fig11,fig12,fig13,fig14,micro1", "comma-separated experiments")
	)
	flag.Parse()
	scale := bench.QuickScale()
	if *full {
		scale = bench.FullScale()
	}
	figures := map[string]func(bench.Scale) (*bench.Table, error){
		"fig9": bench.Fig9, "fig10": bench.Fig10, "fig11": bench.Fig11,
		"fig12": bench.Fig12, "fig13": bench.Fig13, "fig14": bench.Fig14,
	}

	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(name)
		if fig, ok := figures[name]; ok {
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
