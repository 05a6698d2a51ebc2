// Package solver solves the Pyxis partitioning problem (paper §4.3,
// Fig. 5): assign each node of the weighted partition graph to the
// application server (0) or database server (1), minimizing the total
// weight of cut edges subject to a budget on the summed weight of
// nodes assigned to the database.
//
// The paper hands this Binary Integer Program to one off-the-shelf
// solver under a time limit. Auto is that solver here, and the only one
// the partitioner runs:
//
//   - BranchBound: exact depth-first search with a bounded number of
//     expansions, for instances up to 220 free nodes.
//   - MinCutSolver: Lagrangian relaxation of the budget constraint,
//     each subproblem an s-t min cut solved with Dinic's algorithm; the
//     fallback above that size. Lagrangian duality can leave a gap: on
//     TPC-C at half the total load it stays at the all-APP placement
//     (objective 1.016 s) where the exact search finds 0.696 s.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Pin values for Problem.Pin.
const (
	PinFree int8 = -1
	PinApp  int8 = 0
	PinDB   int8 = 1
)

// Edge is an undirected dependency with a cut cost.
type Edge struct {
	U, V int
	W    float64
}

// Problem is a partitioning instance. Same-placement groups are
// expected to be contracted into single nodes by the caller (the core
// partitioner does this), so every node is independent.
type Problem struct {
	N          int
	NodeWeight []float64 // load added to the DB if the node is placed there
	Budget     float64
	Pin        []int8
	Edges      []Edge
}

// Validate checks structural sanity.
func (p *Problem) Validate() error {
	if len(p.NodeWeight) != p.N || len(p.Pin) != p.N {
		return errors.New("solver: inconsistent problem arrays")
	}
	for _, e := range p.Edges {
		if e.U < 0 || e.U >= p.N || e.V < 0 || e.V >= p.N {
			return fmt.Errorf("solver: edge (%d,%d) out of range", e.U, e.V)
		}
		if e.W < 0 {
			return fmt.Errorf("solver: negative edge weight %g", e.W)
		}
	}
	return nil
}

// Solution is an assignment: Assign[i] == true places node i on the DB.
type Solution struct {
	Assign    []bool
	Objective float64 // total cut weight
	Load      float64 // total DB node weight
	Optimal   bool    // proven optimal (BranchBound only)
}

// Evaluate computes the objective and load of an assignment.
func Evaluate(p *Problem, assign []bool) (obj, load float64) {
	for _, e := range p.Edges {
		if assign[e.U] != assign[e.V] {
			obj += e.W
		}
	}
	for i, a := range assign {
		if a {
			load += p.NodeWeight[i]
		}
	}
	return obj, load
}

// Feasible reports whether an assignment satisfies pins and budget.
func Feasible(p *Problem, assign []bool) bool {
	for i, pin := range p.Pin {
		if pin == PinApp && assign[i] {
			return false
		}
		if pin == PinDB && !assign[i] {
			return false
		}
	}
	_, load := Evaluate(p, assign)
	return load <= p.Budget+1e-9
}

// pinnedLoad is the load already forced by PinDB nodes.
func pinnedLoad(p *Problem) float64 {
	l := 0.0
	for i, pin := range p.Pin {
		if pin == PinDB {
			l += p.NodeWeight[i]
		}
	}
	return l
}

// ErrInfeasible indicates no assignment satisfies pins and budget.
var ErrInfeasible = errors.New("solver: infeasible (pinned DB load exceeds budget)")

// allAppSolution returns the everything-on-APP solution (except PinDB
// nodes), the paper's budget-0 degenerate partition.
func allAppSolution(p *Problem) *Solution {
	assign := make([]bool, p.N)
	for i, pin := range p.Pin {
		assign[i] = pin == PinDB
	}
	obj, load := Evaluate(p, assign)
	return &Solution{Assign: assign, Objective: obj, Load: load}
}

// Inf is a capacity larger than any finite weight sum.
const Inf = math.MaxFloat64 / 4
