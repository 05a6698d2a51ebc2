package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce enumerates every assignment (exact oracle for tiny
// instances).
func bruteForce(p *Problem) *Solution {
	best := (*Solution)(nil)
	assign := make([]bool, p.N)
	var rec func(i int)
	rec = func(i int) {
		if i == p.N {
			if !Feasible(p, assign) {
				return
			}
			obj, load := Evaluate(p, assign)
			if best == nil || obj < best.Objective {
				best = &Solution{Assign: append([]bool{}, assign...), Objective: obj, Load: load}
			}
			return
		}
		assign[i] = false
		rec(i + 1)
		assign[i] = true
		rec(i + 1)
	}
	rec(0)
	return best
}

func randomProblem(rng *rand.Rand, n int) *Problem {
	p := &Problem{
		N:          n,
		NodeWeight: make([]float64, n),
		Pin:        make([]int8, n),
		Budget:     rng.Float64() * float64(n) * 2,
	}
	for i := 0; i < n; i++ {
		p.NodeWeight[i] = rng.Float64() * 3
		switch rng.Intn(6) {
		case 0:
			p.Pin[i] = PinApp
		case 1:
			p.Pin[i] = PinDB
		default:
			p.Pin[i] = PinFree
		}
	}
	// Guarantee feasibility: budget covers pinned-DB load.
	pinned := 0.0
	for i := range p.Pin {
		if p.Pin[i] == PinDB {
			pinned += p.NodeWeight[i]
		}
	}
	p.Budget += pinned
	ne := rng.Intn(n * 2)
	for k := 0; k < ne; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		p.Edges = append(p.Edges, Edge{U: u, V: v, W: rng.Float64() * 5})
	}
	return p
}

// TestBranchBoundMatchesBruteForce certifies the exact solver.
func TestBranchBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bb := &BranchBound{}
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 2+rng.Intn(8))
		want := bruteForce(p)
		got, err := bb.Solve(p)
		if want == nil {
			if err == nil {
				t.Fatalf("trial %d: expected infeasible, got %v", trial, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("trial %d: bnb=%g brute=%g\nproblem=%+v", trial, got.Objective, want.Objective, p)
		}
		if !Feasible(p, got.Assign) {
			t.Fatalf("trial %d: bnb solution infeasible", trial)
		}
	}
}

// TestMinCutNearOptimal: the Lagrangian min-cut solution is feasible
// and its objective is within a small factor of the exact optimum on
// random instances (and exactly optimal when the unconstrained cut
// fits).
func TestMinCutNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mc := &MinCutSolver{}
	bb := &BranchBound{}
	exactCount, total := 0, 0
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng, 2+rng.Intn(9))
		want, err := bb.Solve(p)
		if err != nil {
			continue
		}
		got, err := mc.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !Feasible(p, got.Assign) {
			t.Fatalf("trial %d: mincut solution infeasible (load=%g budget=%g)", trial, got.Load, p.Budget)
		}
		if got.Objective < want.Objective-1e-9 {
			t.Fatalf("trial %d: mincut %g beats exact %g — exact solver broken", trial, got.Objective, want.Objective)
		}
		total++
		if got.Objective <= want.Objective+1e-9 {
			exactCount++
		}
		if got.Optimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("trial %d: mincut claimed optimality at %g but exact is %g", trial, got.Objective, want.Objective)
		}
	}
	if exactCount*10 < total*7 {
		t.Errorf("mincut exact on only %d/%d instances; expected >= 70%%", exactCount, total)
	}
}

// solvers are the three ways to solve a Problem.
var solvers = []struct {
	name  string
	solve func(*Problem) (*Solution, error)
}{
	{"mincut", (&MinCutSolver{}).Solve},
	{"bnb", (&BranchBound{}).Solve},
	{"auto", Auto{}.Solve},
}

// TestGreedyFeasibleAndSane: above BranchBound's 220-node cap Auto
// falls back to min cut, and what it returns is feasible and no worse
// than the all-APP placement.
func TestGreedyFeasibleAndSane(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 400)
		free := 0
		for _, pin := range p.Pin {
			if pin == PinFree {
				free++
			}
		}
		if free <= 220 {
			t.Fatalf("trial %d: %d free nodes, the test needs more than the exact cap", trial, free)
		}
		got, err := Auto{}.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mc, err := (&MinCutSolver{}).Solve(p)
		if err != nil {
			t.Fatalf("trial %d: mincut: %v", trial, err)
		}
		if got.Objective != mc.Objective {
			t.Fatalf("trial %d: auto %g, mincut %g: auto did not fall back", trial, got.Objective, mc.Objective)
		}
		if !Feasible(p, got.Assign) {
			t.Fatalf("trial %d: auto infeasible (load=%g budget=%g)", trial, got.Load, p.Budget)
		}
		if app := allAppSolution(p); got.Objective > app.Objective+1e-9 {
			t.Fatalf("trial %d: auto %g worse than all-APP %g", trial, got.Objective, app.Objective)
		}
	}
}

// TestLPLowerBound: BranchBound's certified optimum is a lower bound on
// MinCutSolver's objective, on instances too large to enumerate.
func TestLPLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		p := randomProblem(rng, 12+rng.Intn(29))
		exact, err := (&BranchBound{}).Solve(p)
		if err != nil {
			t.Fatalf("trial %d: bnb: %v", trial, err)
		}
		if !exact.Optimal {
			t.Fatalf("trial %d: unbounded search did not certify its result", trial)
		}
		mc, err := (&MinCutSolver{}).Solve(p)
		if err != nil {
			t.Fatalf("trial %d: mincut: %v", trial, err)
		}
		if exact.Objective > mc.Objective+1e-9 {
			t.Fatalf("trial %d: certified optimum %g exceeds mincut %g", trial, exact.Objective, mc.Objective)
		}
	}
}

// TestBudgetZeroDegenerate: with budget 0 every solver returns the
// all-APP partition (paper §4.3's degenerate case).
func TestBudgetZeroDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 3+rng.Intn(6))
		p.Budget = 0
		for i := range p.Pin {
			if p.Pin[i] == PinDB {
				p.Pin[i] = PinFree // make budget 0 feasible
			}
			if p.NodeWeight[i] == 0 {
				p.NodeWeight[i] = 0.1
			}
		}
		for _, s := range solvers {
			sol, err := s.solve(p)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			for i, a := range sol.Assign {
				if a {
					t.Fatalf("%s: node %d on DB despite zero budget", s.name, i)
				}
			}
		}
	}
}

func TestInfeasiblePins(t *testing.T) {
	p := &Problem{
		N:          2,
		NodeWeight: []float64{5, 1},
		Budget:     1,
		Pin:        []int8{PinDB, PinFree},
	}
	for _, s := range solvers {
		if _, err := s.solve(p); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: got %v, want ErrInfeasible", s.name, err)
		}
	}
}

func TestUnconstrainedIsPureMinCut(t *testing.T) {
	// A classic two-terminal cut: pins at the ends, chain of edges;
	// with infinite budget the solver must cut the cheapest edge.
	p := &Problem{
		N:          4,
		NodeWeight: []float64{1, 1, 1, 1},
		Budget:     100,
		Pin:        []int8{PinApp, PinFree, PinFree, PinDB},
		Edges: []Edge{
			{U: 0, V: 1, W: 5},
			{U: 1, V: 2, W: 1}, // cheapest: the cut should land here
			{U: 2, V: 3, W: 7},
		},
	}
	sol, err := (&MinCutSolver{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 1 {
		t.Fatalf("objective = %g, want 1", sol.Objective)
	}
	want := []bool{false, false, true, true}
	for i := range want {
		if sol.Assign[i] != want[i] {
			t.Fatalf("assign = %v, want %v", sol.Assign, want)
		}
	}
	if !sol.Optimal {
		t.Error("unconstrained fit should be flagged optimal")
	}
}

// TestSimplexBasics: Auto returns the known optimum of a knapsack with
// a Lagrangian gap. Nodes 1–3 each want to join the pinned DB node 0;
// node 1 has the best gain per unit of load, but nodes 2 and 3 together
// fill the budget exactly and cut less.
func TestSimplexBasics(t *testing.T) {
	p := &Problem{
		N:          4,
		NodeWeight: []float64{0, 6, 4, 4},
		Budget:     8,
		Pin:        []int8{PinDB, PinFree, PinFree, PinFree},
		Edges:      []Edge{{U: 0, V: 1, W: 8}, {U: 0, V: 2, W: 5}, {U: 0, V: 3, W: 5}},
	}
	sol, err := Auto{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true}
	for i := range want {
		if sol.Assign[i] != want[i] {
			t.Fatalf("assign = %v, want %v", sol.Assign, want)
		}
	}
	if sol.Objective != 8 || sol.Load != 8 || !sol.Optimal {
		t.Fatalf("objective %g load %g optimal %v, want 8, 8, true", sol.Objective, sol.Load, sol.Optimal)
	}
	// Min cut alone takes node 1 and stops there: the gap is real.
	mc, err := (&MinCutSolver{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Objective != 10 {
		t.Fatalf("mincut objective = %g, want 10", mc.Objective)
	}
}

// Property: on instances under the exact cap, no random feasible
// assignment beats Auto.
func TestSimplexDominatesRandomFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(29))
		sol, err := Auto{}.Solve(p)
		if err != nil || !Feasible(p, sol.Assign) {
			return false
		}
		assign := make([]bool, p.N)
		for trial := 0; trial < 50; trial++ {
			for i, pin := range p.Pin {
				assign[i] = pin == PinDB || (pin == PinFree && rng.Intn(2) == 1)
			}
			if !Feasible(p, assign) {
				continue
			}
			if obj, _ := Evaluate(p, assign); obj < sol.Objective-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDinicClassic(t *testing.T) {
	// Known max-flow instance: s=0, t=5.
	d := newDinic(6)
	add := func(u, v int, c float64) { d.addEdge(u, v, c, 0) }
	add(0, 1, 16)
	add(0, 2, 13)
	add(1, 2, 10)
	add(2, 1, 4)
	add(1, 3, 12)
	add(3, 2, 9)
	add(2, 4, 14)
	add(4, 3, 7)
	add(3, 5, 20)
	add(4, 5, 4)
	if got := d.maxflow(0, 5); math.Abs(got-23) > 1e-9 {
		t.Fatalf("maxflow = %g, want 23", got)
	}
	side := d.minCutSide(0)
	if !side[0] || side[5] {
		t.Error("cut side must contain s and exclude t")
	}
}

func TestBranchBoundTooLarge(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(1)), 40)
	for i := range p.Pin {
		p.Pin[i] = PinFree
	}
	bb := &BranchBound{MaxNodes: 10}
	if _, err := bb.Solve(p); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}
