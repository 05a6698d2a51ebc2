package solver

// MinCutSolver solves the budgeted partitioning problem by Lagrangian
// relaxation: the budget constraint is moved into the objective with a
// multiplier λ, turning each subproblem into a plain s-t min cut
//
//	min  Σ_cut w(e) + λ·Σ_{i on DB} w(i)
//
// solved exactly by max-flow. λ = 0 ignores load (push everything
// profitable to the DB); λ → ∞ forces the all-APP partition. A
// bisection over λ finds the cheapest cut whose load fits the budget.
// Lagrangian duality can leave a gap on knapsack-like instances, so
// the result is near-optimal rather than certified; BranchBound
// (exact) cross-checks it in tests.
type MinCutSolver struct{}

// bisectionSteps is how many times Solve halves the λ interval.
const bisectionSteps = 48

// Solve returns the cheapest feasible cut the λ search visits.
func (m *MinCutSolver) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pinnedLoad(p) > p.Budget+1e-9 {
		return nil, ErrInfeasible
	}

	best := allAppSolution(p) // always feasible given the pin check

	try := func(lambda float64) *Solution {
		sol := m.cutAt(p, lambda)
		if sol.Load <= p.Budget+1e-9 && sol.Objective < best.Objective-1e-12 {
			best = sol
		}
		return sol
	}

	if sol := try(0); sol.Load <= p.Budget+1e-9 {
		// The unconstrained min cut already fits: it is globally optimal.
		best.Optimal = true
		return best, nil
	}

	// Find an upper λ that forces feasibility.
	lo, hi := 0.0, 1e-12
	for i := 0; i < 80; i++ {
		sol := try(hi)
		if sol.Load <= p.Budget+1e-9 {
			break
		}
		lo = hi
		hi *= 8
	}
	for i := 0; i < bisectionSteps; i++ {
		mid := (lo + hi) / 2
		sol := try(mid)
		if sol.Load <= p.Budget+1e-9 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return best, nil
}

// cutAt solves the λ-relaxed problem exactly via min cut. Convention:
// source s is APP, sink t is DB; a node on the sink side is assigned
// to the database.
func (m *MinCutSolver) cutAt(p *Problem, lambda float64) *Solution {
	s, t := p.N, p.N+1
	d := newDinic(p.N + 2)
	for i := 0; i < p.N; i++ {
		switch p.Pin[i] {
		case PinApp:
			d.addEdge(s, i, Inf, 0)
		case PinDB:
			d.addEdge(i, t, Inf, 0)
		}
		// Placing node i on the DB costs λ·w_i: cutting the s→i arc.
		if w := lambda * p.NodeWeight[i]; w > 0 {
			d.addEdge(s, i, w, 0)
		}
	}
	for _, e := range p.Edges {
		if e.W > 0 {
			d.addEdge(e.U, e.V, e.W, e.W)
		}
	}
	d.maxflow(s, t)
	side := d.minCutSide(s)

	assign := make([]bool, p.N)
	for i := 0; i < p.N; i++ {
		assign[i] = !side[i] // sink side = DB
	}
	obj, load := Evaluate(p, assign)
	return &Solution{Assign: assign, Objective: obj, Load: load}
}
