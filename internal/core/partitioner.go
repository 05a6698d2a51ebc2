// Package core implements the Pyxis partitioner (paper §4.3): it
// lowers the weighted partition graph to the Binary Integer Program of
// Fig. 5 — same-placement groups contracted, pins applied — solves it
// with solver.Auto, and lifts the solution back to a per-node
// Placement.
package core

import (
	"fmt"
	"sort"
	"time"

	"pyxis/internal/pdg"
	"pyxis/internal/solver"
	"pyxis/internal/source"
)

// Partitioner assigns placements for one partition graph.
type Partitioner struct {
	Graph *pdg.Graph
}

// New returns a Partitioner for g.
func New(g *pdg.Graph) *Partitioner {
	return &Partitioner{Graph: g}
}

// Report describes one solved partitioning.
type Report struct {
	Budget    float64
	Objective float64 // estimated network time of cut edges (seconds)
	Load      float64 // estimated DB instruction load
	TotalLoad float64 // load if everything ran on the DB
	SolveTime time.Duration
	DBNodes   int // statement nodes placed on the database
	AppNodes  int
}

func (r *Report) String() string {
	return fmt.Sprintf("budget=%.0f load=%.0f/%.0f objective=%.6fs stmts(db/app)=%d/%d solved in %v",
		r.Budget, r.Load, r.TotalLoad, r.Objective, r.DBNodes, r.AppNodes, r.SolveTime)
}

// Partition solves the placement problem under an instruction budget
// for the database server.
func (pt *Partitioner) Partition(budget float64) (pdg.Placement, *Report, error) {
	prob, ids, err := Lower(pt.Graph, budget)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	sol, err := solver.Auto{}.Solve(prob)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	elapsed := time.Since(start)

	place := Lift(pt.Graph, prob, ids, sol)
	if err := pt.Graph.Validate(place); err != nil {
		return nil, nil, err
	}

	rep := &Report{
		Budget:    budget,
		Objective: sol.Objective,
		Load:      sol.Load,
		SolveTime: elapsed,
	}
	for _, n := range pt.Graph.Nodes {
		rep.TotalLoad += n.Weight
		if n.Kind != pdg.StmtNode {
			continue
		}
		if place.Of(n.ID) == pdg.DB {
			rep.DBNodes++
		} else {
			rep.AppNodes++
		}
	}
	return place, rep, nil
}

// Lower converts the partition graph into a solver.Problem, contracting
// same-placement groups into supernodes. ids maps each NodeID to its
// problem variable index.
func Lower(g *pdg.Graph, budget float64) (*solver.Problem, map[source.NodeID]int, error) {
	// Union-find over group members.
	parent := map[source.NodeID]source.NodeID{}
	var find func(x source.NodeID) source.NodeID
	find = func(x source.NodeID) source.NodeID {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b source.NodeID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, grp := range g.Groups {
		for _, id := range grp[1:] {
			union(grp[0], id)
		}
	}

	// Deterministic variable numbering: sorted roots.
	var rootIDs []source.NodeID
	seen := map[source.NodeID]bool{}
	var allIDs []source.NodeID
	for id := range g.Nodes {
		allIDs = append(allIDs, id)
	}
	sort.Slice(allIDs, func(i, j int) bool { return allIDs[i] < allIDs[j] })
	for _, id := range allIDs {
		r := find(id)
		if !seen[r] {
			seen[r] = true
			rootIDs = append(rootIDs, r)
		}
	}
	varOf := map[source.NodeID]int{}
	for i, r := range rootIDs {
		varOf[r] = i
	}
	ids := map[source.NodeID]int{}
	for _, id := range allIDs {
		ids[id] = varOf[find(id)]
	}

	prob := &solver.Problem{
		N:          len(rootIDs),
		NodeWeight: make([]float64, len(rootIDs)),
		Pin:        make([]int8, len(rootIDs)),
		Budget:     budget,
	}
	for i := range prob.Pin {
		prob.Pin[i] = solver.PinFree
	}
	for _, id := range allIDs {
		v := ids[id]
		n := g.Nodes[id]
		prob.NodeWeight[v] += n.Weight
		if n.Pin != pdg.Unpinned {
			want := solver.PinApp
			if n.Pin == pdg.DB {
				want = solver.PinDB
			}
			if prob.Pin[v] != solver.PinFree && prob.Pin[v] != want {
				return nil, nil, fmt.Errorf("core: conflicting pins in group of node %d (%s)", id, n.Label)
			}
			prob.Pin[v] = want
		}
	}
	// Merge parallel edges.
	acc := map[[2]int]float64{}
	for _, e := range g.Edges {
		if e.Kind == pdg.OutputEdge || e.Kind == pdg.AntiEdge {
			continue
		}
		u, v := ids[e.Src], ids[e.Dst]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		acc[[2]int{u, v}] += e.Weight
	}
	var keys [][2]int
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		prob.Edges = append(prob.Edges, solver.Edge{U: k[0], V: k[1], W: acc[k]})
	}
	return prob, ids, nil
}

// Lift expands a solver solution back to per-node placements.
func Lift(g *pdg.Graph, prob *solver.Problem, ids map[source.NodeID]int, sol *solver.Solution) pdg.Placement {
	place := pdg.Placement{}
	for id := range g.Nodes {
		if sol.Assign[ids[id]] {
			place[id] = pdg.DB
		} else {
			place[id] = pdg.App
		}
	}
	return place
}

// TotalLoad returns the summed statement load of the graph (the budget
// that admits an everything-on-DB partition).
func TotalLoad(g *pdg.Graph) float64 {
	total := 0.0
	for _, n := range g.Nodes {
		total += n.Weight
	}
	return total
}
