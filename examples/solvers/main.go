// Solver comparison: sweep the DB instruction budget over the TPC-C
// partition graph and show, for solver.Auto (what the partitioner runs)
// and for MinCutSolver alone (Auto's fallback above 220 free nodes),
// the objective (estimated seconds of network time per profiling run),
// the DB load the placement uses, and the solve time. At half and three
// quarters of the total load the Lagrangian min cut stays at the
// all-APP placement while Auto's exact search finds a cheaper one: the
// gap Auto's branch and bound is there to close.
package main

import (
	"fmt"
	"log"
	"time"

	"pyxis/internal/bench"
	"pyxis/internal/core"
	"pyxis/internal/solver"
)

func main() {
	part, err := bench.DefaultTPCC().PyxisPartition(1.0)
	if err != nil {
		log.Fatal(err)
	}
	sys := part.System
	g := sys.EnsureGraph()
	fmt.Println("TPC-C partition graph:", g.Stats())
	fmt.Printf("total statement load: %.0f\n\n", sys.TotalLoad())

	solvers := []struct {
		name  string
		solve func(*solver.Problem) (*solver.Solution, error)
	}{
		{"auto", solver.Auto{}.Solve},
		{"mincut", (&solver.MinCutSolver{}).Solve},
	}
	fmt.Printf("%-8s %-8s %-14s %-8s %s\n", "budget", "solver", "objective(ms)", "db load", "time")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		prob, _, err := core.Lower(g, sys.TotalLoad()*frac)
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range solvers {
			start := time.Now()
			sol, err := s.solve(prob)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8.2f %-8s %-14.3f %-8.0f %v\n",
				frac, s.name, sol.Objective*1e3, sol.Load, time.Since(start).Round(10*time.Microsecond))
		}
	}
}
