package solver

import (
	"errors"
	"sort"
)

// BranchBound is an exact solver: depth-first branch and bound over
// node assignments. The bound is the cut weight already forced by
// decided edges; nodes are explored in descending order of incident
// edge weight so heavy edges are decided early. Exponential in the
// worst case — intended for the moderate program sizes Pyxis actually
// partitions (and for certifying MinCutSolver in tests).
type BranchBound struct {
	// MaxNodes caps the instance size (0 = 64). Larger instances
	// return ErrTooLarge so callers can fall back to MinCutSolver.
	MaxNodes int
	// MaxExpansions bounds the search (0 = unlimited). When exceeded,
	// the best incumbent found so far is returned with Optimal=false.
	MaxExpansions int64
}

// ErrTooLarge reports an instance beyond the exact solver's cap.
var ErrTooLarge = errTooLarge{}

type errTooLarge struct{}

func (errTooLarge) Error() string { return "solver: instance too large for exact branch & bound" }

// Solve returns the optimum, or the best incumbent with Optimal=false
// when MaxExpansions runs out.
func (b *BranchBound) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxN := b.MaxNodes
	if maxN == 0 {
		maxN = 64
	}
	free := 0
	for _, pin := range p.Pin {
		if pin == PinFree {
			free++
		}
	}
	if free > maxN {
		return nil, ErrTooLarge
	}
	if pinnedLoad(p) > p.Budget+1e-9 {
		return nil, ErrInfeasible
	}

	// Start from the MinCut solution as the incumbent: tight incumbents
	// prune hard.
	mc, err := (&MinCutSolver{}).Solve(p)
	if err != nil {
		return nil, err
	}
	best := mc
	if mc.Optimal {
		return mc, nil
	}

	// Branch order: heaviest total incident weight first.
	incident := make([]float64, p.N)
	adj := make([][]Edge, p.N)
	for _, e := range p.Edges {
		incident[e.U] += e.W
		incident[e.V] += e.W
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], Edge{U: e.V, V: e.U, W: e.W})
	}
	var order []int
	for i := 0; i < p.N; i++ {
		if p.Pin[i] == PinFree {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(i, j int) bool { return incident[order[i]] > incident[order[j]] })

	assign := make([]bool, p.N)
	decided := make([]bool, p.N)
	for i, pin := range p.Pin {
		if pin != PinFree {
			decided[i] = true
			assign[i] = pin == PinDB
		}
	}
	load := pinnedLoad(p)
	// Cut cost among pinned nodes.
	cost := 0.0
	for _, e := range p.Edges {
		if decided[e.U] && decided[e.V] && assign[e.U] != assign[e.V] {
			cost += e.W
		}
	}

	var expansions int64
	truncated := false
	var rec func(k int, cost, load float64)
	rec = func(k int, cost, load float64) {
		if truncated || cost >= best.Objective-1e-12 {
			return
		}
		if b.MaxExpansions > 0 {
			expansions++
			if expansions > b.MaxExpansions {
				truncated = true
				return
			}
		}
		if k == len(order) {
			sol := &Solution{Assign: append([]bool{}, assign...), Objective: cost, Load: load}
			best = sol
			return
		}
		i := order[k]
		// Try APP then DB (APP never consumes budget).
		for _, side := range [2]bool{false, true} {
			if side && load+p.NodeWeight[i] > p.Budget+1e-9 {
				continue
			}
			delta := 0.0
			for _, e := range adj[i] {
				if decided[e.V] && assign[e.V] != side {
					delta += e.W
				}
			}
			assign[i] = side
			decided[i] = true
			extra := 0.0
			if side {
				extra = p.NodeWeight[i]
			}
			rec(k+1, cost+delta, load+extra)
			decided[i] = false
		}
	}
	rec(0, cost, load)
	out := &Solution{Assign: best.Assign, Objective: best.Objective, Load: best.Load, Optimal: !truncated}
	return out, nil
}

// Auto is the production solver: the exact branch and bound with a
// search budget on moderate instances, Lagrangian min cut on larger
// ones (the same division of labour the paper gets from invoking
// Gurobi with a time limit).
type Auto struct{}

// Solve solves p with BranchBound, or with MinCutSolver when p has more
// than 220 free nodes.
func (Auto) Solve(p *Problem) (*Solution, error) {
	bb := &BranchBound{MaxNodes: 220, MaxExpansions: 2_000_000}
	sol, err := bb.Solve(p)
	if err == nil {
		return sol, nil
	}
	if errors.Is(err, ErrTooLarge) {
		return (&MinCutSolver{}).Solve(p)
	}
	return nil, err
}
