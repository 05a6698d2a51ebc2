package pdg

import (
	"math/rand"
	"slices"

	"pyxis/internal/source"
)

// RandomAssign returns a placement mutator that places each field and
// each statement of every method on a seeded coin flip. It is the
// differential-test generator from the fusion work: the runtime's
// observational-equivalence property test sweeps it across seeds, and
// the verifier's fuzz harness compiles the same placements and demands
// every one verifies pre- and post-fusion. The mutator composes with a
// base placement (typically all-APP with the DB code node pinned DB).
func RandomAssign(seed int64) func(g *Graph, place Placement) {
	return func(g *Graph, place Placement) {
		rng := rand.New(rand.NewSource(seed))
		prog := g.Prog
		// In NodeID order, not map order: one seed is one placement, on
		// every compile and on both halves of a deployment.
		fields := make([]source.NodeID, 0, len(prog.Fields))
		for id := range prog.Fields {
			fields = append(fields, id)
		}
		slices.Sort(fields)
		for _, id := range fields {
			if rng.Intn(2) == 0 {
				place[id] = DB
			}
		}
		for _, cl := range prog.Classes {
			for _, m := range cl.Methods {
				if rng.Intn(2) == 0 {
					place[m.EntryID] = DB
				}
				source.WalkMethodStmts(m, func(s source.Stmt) bool {
					if rng.Intn(2) == 0 {
						place[s.ID()] = DB
					}
					return true
				})
			}
		}
		// Coin flips must not override mandatory placements (console
		// output is pinned APP): the generator produces random *valid*
		// placements, which the verifier is entitled to accept.
		for id, n := range g.Nodes {
			if n.Pin != Unpinned {
				place[id] = n.Pin
			}
		}
	}
}
