package runtime

// Advisor is the policy half of live rebalancing: it folds the
// per-warehouse access counts the transaction drivers feed it (plus
// which warehouses co-occur inside one transaction) into a co-access
// graph, and when the per-shard load skew passes its trigger it
// min-cuts that graph with the same internal/solver machinery the
// program partitioner uses — the paper's move, applied to data
// placement instead of statement placement.
//
// The cut instance, per plan, is anchored two-terminal: every
// warehouse of the hottest (donor) shard is a free node; one anchor is
// pinned APP (the "stay on the donor" side, at the donor's move cost)
// and one pinned DB (the "move to the recipient" side, at the
// warehouse's own observed traffic — staying hot is what costs).
// Co-access edges between donor warehouses, and between a donor
// warehouse and the recipient's warehouses, bias the cut toward
// keeping transaction neighborhoods together (cutting a pair edge
// models the 2PC round-trips the split would buy). The Budget caps
// moved load at half the donor/recipient gap, so the solver sheds the
// hottest warehouses first and stops at balance instead of swapping
// the skew to the other side.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pyxis/internal/solver"
)

// advisorTrigger is the imbalance ratio (hottest / median shard load)
// above which Plan proposes a migration.
const advisorTrigger = 1.25

// advisorMoveCostDiv sets the per-warehouse cost of migrating: the
// donor's mean warehouse load over 100, i.e. 1% of it — cheap enough
// to move hot data, dear enough not to churn cold warehouses for
// nothing.
const advisorMoveCostDiv = 100

// Advisor accumulates per-warehouse access statistics and emits
// migration plans. Observe is cheap (one atomic add per touched
// warehouse; the pair map is only taken for multi-warehouse
// transactions) and safe for concurrent use.
type Advisor struct {
	warehouses int
	counts     []atomic.Int64

	pairMu sync.Mutex
	pairs  map[[2]int32]float64
}

// NewAdvisor sizes an advisor for warehouses [1, warehouses].
func NewAdvisor(warehouses int) *Advisor {
	return &Advisor{
		warehouses: warehouses,
		counts:     make([]atomic.Int64, warehouses),
		pairs:      map[[2]int32]float64{},
	}
}

// Observe records one transaction touching ws (home warehouse first,
// remote branches after). Out-of-range warehouses are ignored.
func (a *Advisor) Observe(ws ...int64) {
	for _, w := range ws {
		if w >= 1 && w <= int64(a.warehouses) {
			a.counts[w-1].Add(1)
		}
	}
	if len(ws) < 2 {
		return
	}
	a.pairMu.Lock()
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			u, v := int32(ws[i]), int32(ws[j])
			if u == v || ws[i] < 1 || ws[j] < 1 || ws[i] > int64(a.warehouses) || ws[j] > int64(a.warehouses) {
				continue
			}
			if u > v {
				u, v = v, u
			}
			a.pairs[[2]int32{u, v}]++
		}
	}
	a.pairMu.Unlock()
}

// Count returns warehouse w's accumulated access count.
func (a *Advisor) Count(w int64) int64 {
	if w < 1 || w > int64(a.warehouses) {
		return 0
	}
	return a.counts[w-1].Load()
}

// Reset zeroes all counters — called after a migration so the next
// window measures the new placement, not the history that triggered
// the move.
func (a *Advisor) Reset() {
	for i := range a.counts {
		a.counts[i].Store(0)
	}
	a.pairMu.Lock()
	a.pairs = map[[2]int32]float64{}
	a.pairMu.Unlock()
}

// ShardLoads sums the observed counts per owning shard under m.
func (a *Advisor) ShardLoads(m ShardMap) []float64 {
	loads := make([]float64, m.NumShards())
	for w := int64(1); w <= int64(a.warehouses); w++ {
		loads[m.Shard(w)] += float64(a.counts[w-1].Load())
	}
	return loads
}

// Imbalance returns hottest/median shard load under m (the gate the
// rebalance bench enforces) plus the per-shard loads. With an even
// shard count the median averages the two middle loads. A zero median
// with any traffic reports +Inf.
func (a *Advisor) Imbalance(m ShardMap) (float64, []float64) {
	loads := a.ShardLoads(m)
	return ImbalanceRatio(loads), loads
}

// ImbalanceRatio computes hottest/median over a load vector.
func ImbalanceRatio(loads []float64) float64 {
	if len(loads) == 0 {
		return 1
	}
	sorted := append([]float64{}, loads...)
	sort.Float64s(sorted)
	max := sorted[len(sorted)-1]
	var median float64
	if n := len(sorted); n%2 == 1 {
		median = sorted[n/2]
	} else {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	switch {
	case max == 0:
		return 1
	case median == 0:
		return max / 1e-9 // effectively +Inf: all load on shards above the median
	}
	return max / median
}

// MigrationPlan is one advisor decision: move Warehouses (sorted) from
// shard From to shard To.
type MigrationPlan struct {
	From, To   int
	Warehouses []int64
	// DonorLoad/RecipientLoad/MovedLoad document the decision in
	// observed-access units.
	DonorLoad, RecipientLoad, MovedLoad float64
}

func (p *MigrationPlan) String() string {
	return fmt.Sprintf("move %v shard%d->shard%d (donor %.0f, recipient %.0f, shedding %.0f)",
		p.Warehouses, p.From, p.To, p.DonorLoad, p.RecipientLoad, p.MovedLoad)
}

// Runs splits the plan's warehouses into contiguous [lo, hi] runs —
// the unit Migrator.Move fences and streams.
func (p *MigrationPlan) Runs() [][2]int64 {
	var runs [][2]int64
	for i := 0; i < len(p.Warehouses); {
		j := i
		for j+1 < len(p.Warehouses) && p.Warehouses[j+1] == p.Warehouses[j]+1 {
			j++
		}
		runs = append(runs, [2]int64{p.Warehouses[i], p.Warehouses[j]})
		i = j + 1
	}
	return runs
}

// Plan proposes a migration under the current map, or returns (nil,
// nil) when the tier is balanced (imbalance under advisorTrigger), the
// donor cannot shed anything within budget (one indivisible hotspot),
// or nothing has been observed yet.
func (a *Advisor) Plan(m ShardMap) (*MigrationPlan, error) {
	n := m.NumShards()
	if n < 2 {
		return nil, nil
	}
	loads := a.ShardLoads(m)
	if ImbalanceRatio(loads) <= advisorTrigger {
		return nil, nil
	}
	donor, recip := 0, 0
	for i, l := range loads {
		if l > loads[donor] {
			donor = i
		}
		if l < loads[recip] {
			recip = i
		}
	}
	if donor == recip {
		return nil, nil
	}
	donorWs := m.OwnedWarehouses(donor)
	if len(donorWs) <= 1 {
		return nil, nil // a one-warehouse shard has nothing divisible to shed
	}
	budget := (loads[donor] - loads[recip]) / 2
	if budget <= 0 {
		return nil, nil
	}

	// Auto = exact branch & bound on advisor-sized instances (a few
	// dozen donor warehouses), Lagrangian min cut beyond that. The
	// exact path matters here: the budget makes this a knapsack-shaped
	// cut, and pure Lagrangian relaxation can return the empty move
	// when the single hottest warehouse exceeds the budget on its own
	// (the duality gap lands between "move the hotspot" and "move
	// nothing", skipping the warm middle the plan actually wants).
	sol, err := (solver.Auto{}).Solve(a.cutProblem(m, donorWs, recip, budget))
	if err != nil {
		return nil, fmt.Errorf("runtime: advisor min-cut: %w", err)
	}
	plan := &MigrationPlan{From: donor, To: recip,
		DonorLoad: loads[donor], RecipientLoad: loads[recip]}
	for i, w := range donorWs {
		if sol.Assign[i] {
			plan.Warehouses = append(plan.Warehouses, w)
			plan.MovedLoad += float64(a.counts[w-1].Load())
		}
	}
	if len(plan.Warehouses) == 0 {
		return nil, nil
	}
	return plan, nil
}

// cutProblem builds the anchored two-terminal instance over the
// donor's warehouses. Node i is donorWs[i]; node N-2 is the donor
// anchor (pinned APP = stay), node N-1 the recipient anchor (pinned
// DB = move). Assign[i] == true means "move warehouse i".
func (a *Advisor) cutProblem(m ShardMap, donorWs []int64, recip int, budget float64) *solver.Problem {
	nw := len(donorWs)
	idx := make(map[int64]int, nw)
	for i, w := range donorWs {
		idx[w] = i
	}
	p := &solver.Problem{
		N:          nw + 2,
		NodeWeight: make([]float64, nw+2),
		Budget:     budget,
		Pin:        make([]int8, nw+2),
	}
	donorAnchor, recipAnchor := nw, nw+1
	for i := range p.Pin {
		p.Pin[i] = solver.PinFree
	}
	p.Pin[donorAnchor] = solver.PinApp
	p.Pin[recipAnchor] = solver.PinDB

	var total float64
	for i, w := range donorWs {
		c := float64(a.counts[w-1].Load())
		p.NodeWeight[i] = c
		total += c
	}
	moveCost := total / float64(nw) / advisorMoveCostDiv
	if moveCost <= 0 {
		moveCost = 1e-3
	}
	for i, w := range donorWs {
		c := float64(a.counts[w-1].Load())
		// Staying on the overloaded donor costs the warehouse its own
		// traffic (cut when the node stays APP-side with the recipient
		// anchor DB-side); moving costs the flat migration fee (cut
		// when it leaves the donor anchor's side).
		p.Edges = append(p.Edges,
			solver.Edge{U: i, V: recipAnchor, W: c},
			solver.Edge{U: i, V: donorAnchor, W: moveCost})
	}
	a.pairMu.Lock()
	for pair, w := range a.pairs {
		u, uok := idx[int64(pair[0])]
		v, vok := idx[int64(pair[1])]
		switch {
		case uok && vok:
			// Both on the donor: splitting the pair costs its co-access.
			p.Edges = append(p.Edges, solver.Edge{U: u, V: v, W: w})
		case uok && m.Shard(int64(pair[1])) == recip:
			// Partner already on the recipient: moving u joins them.
			p.Edges = append(p.Edges, solver.Edge{U: u, V: recipAnchor, W: w})
		case vok && m.Shard(int64(pair[0])) == recip:
			p.Edges = append(p.Edges, solver.Edge{U: v, V: recipAnchor, W: w})
		}
	}
	a.pairMu.Unlock()
	return p
}
