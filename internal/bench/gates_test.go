package bench

import (
	"strings"
	"testing"

	"pyxis/internal/runtime"
)

// passingResults is the smallest set of results that passes every gate
// of the named experiment on a host where speedup gates bind.
func passingResults(experiment string) []*WallResult {
	ok := func(arm string, tput float64) *WallResult {
		return &WallResult{Arm: arm, Shards: 1, Conns: 1, Clients: 8, Offered: 80, TotalTxns: 80, Tput: tput}
	}
	switch experiment {
	case "dynamic-wall":
		r := ok("ramp", 100)
		r.Phases = []PhaseResult{{Name: "idle"}, {Name: "spike", LowPicks: 5}, {Name: "recover"}}
		return []*WallResult{r}
	case "pool-wall":
		sat := ok("saturation", 100)
		sat.Sheds, sat.P95Ms = 3, 12
		sat.Admission = &AdmissionResult{MaxSessions: 2, AdmissionStats: runtime.AdmissionStats{ShedSessions: 3}}
		return []*WallResult{ok("1 conn", 100), ok("pool", 140), sat}
	case "shard-wall":
		sharded := ok("sharded", 140)
		sharded.Shards, sharded.Warehouses, sharded.SessionsPerShard = 2, 4, []int{4, 4}
		sharded.Payments, sharded.RemotePayments = 40, 6
		sharded.NewOrders, sharded.RemoteNewOrders = 40, 4
		sharded.DistCommits = 5
		return []*WallResult{ok("1 shard", 100), sharded}
	case "rebalance-wall":
		frozen, live := ok("frozen", 100), ok("live", 100)
		frozen.Migration = &MigrationResult{PostTput: 100, ImbalanceAfter: 1.7}
		live.Migration = &MigrationResult{Migrations: 1, PostTput: 130, ImbalanceBefore: 1.7, ImbalanceAfter: 1.1}
		return []*WallResult{frozen, live}
	}
	return []*WallResult{ok("budget 1.0", 100)}
}

// gateBreakers names, per experiment, every gate that can fail a
// pyxis-bench run and the smallest change to passing results that must
// make it fire. A gate row deleted from Experiments, or added without a
// case here, fails TestGates.
var gateBreakers = map[string]map[string]func(rs []*WallResult){
	"parallel":  commonBreakers(nil),
	"tpcc-wall": commonBreakers(nil),
	"dynamic-wall": commonBreakers(map[string]func(rs []*WallResult){
		"spike routes low-budget": func(rs []*WallResult) { rs[0].Phases[1].LowPicks = 0 },
	}),
	"pool-wall": commonBreakers(map[string]func(rs []*WallResult){
		"pool-wall speedup >= 1.3x":   func(rs []*WallResult) { rs[1].Tput = 120 },
		"oversubscribed server sheds": func(rs []*WallResult) { rs[2].Admission.ShedSessions = 0 },
		"saturation p95 <= 2000ms":    func(rs []*WallResult) { rs[2].P95Ms = 2500 },
	}),
	"shard-wall": commonBreakers(map[string]func(rs []*WallResult){
		"remote Payment rate >= 1%":   func(rs []*WallResult) { rs[1].RemotePayments = 0 },
		"remote NewOrder rate >= 5%":  func(rs []*WallResult) { rs[1].RemoteNewOrders = 1 },
		"cross-shard 2PC commits":     func(rs []*WallResult) { rs[1].DistCommits = 0 },
		"every shard serves sessions": func(rs []*WallResult) { rs[1].SessionsPerShard = []int{8, 0} },
		"shard-wall speedup >= 1.3x":  func(rs []*WallResult) { rs[1].Tput = 110 },
	}),
	"rebalance-wall": commonBreakers(map[string]func(rs []*WallResult){
		"advisor migrates under skew":                   func(rs []*WallResult) { rs[1].Migration.Migrations = 0 },
		"post-migration imbalance <= 1.5":               func(rs []*WallResult) { rs[1].Migration.ImbalanceAfter = 1.6 },
		"rebalance-wall post-migration speedup >= 1.2x": func(rs []*WallResult) { rs[1].Migration.PostTput = 110 },
	}),
}

func commonBreakers(own map[string]func(rs []*WallResult)) map[string]func(rs []*WallResult) {
	all := map[string]func(rs []*WallResult){
		"all work completed": func(rs []*WallResult) { rs[len(rs)-1].TotalTxns-- },
		"invariants":         func(rs []*WallResult) { rs[0].Violations = []string{"warehouse 1: w_ytd=3 != sum(d_ytd)=2"} },
	}
	for name, brk := range own {
		all[name] = brk
	}
	return all
}

// TestGates runs every gate row of every experiment on synthetic
// results: silent on passing ones, firing — alone — on the minimal
// failing ones, and for the wall-clock speedup gates, skipped with a
// gates_skipped entry instead of failing on a host that cannot show
// parallel speedup.
func TestGates(t *testing.T) {
	args := Args{Clients: 8, Txns: 10, Pool: 4, Shards: 2}
	if len(gateBreakers) != len(Experiments()) {
		t.Errorf("%d experiments, gate cases for %d", len(Experiments()), len(gateBreakers))
	}
	for _, e := range Experiments() {
		breakers := gateBreakers[e.Name]
		if failed, skipped := e.judge(passingResults(e.Name), args, 8, false); len(failed)+len(skipped) > 0 {
			t.Errorf("%s: passing results judged failed=%v skipped=%v", e.Name, failed, skipped)
		}
		have := map[string]bool{}
		for _, g := range e.Gates {
			have[g.Name] = true
			brk := breakers[g.Name]
			if brk == nil {
				t.Errorf("%s: gate %q has no failing case in gateBreakers", e.Name, g.Name)
				continue
			}
			rs := passingResults(e.Name)
			brk(rs)
			failed, _ := e.judge(rs, args, 8, false)
			if len(failed) == 0 {
				t.Errorf("%s: gate %q silent on its failing case", e.Name, g.Name)
			}
			for _, f := range failed {
				if !strings.HasPrefix(f, g.Name+": ") {
					t.Errorf("%s: breaking %q also fired %q", e.Name, g.Name, f)
				}
			}
			if !g.Speedup {
				continue
			}
			for _, host := range []struct {
				name string
				args Args
				cpus int
				race bool
			}{
				{"1 CPU", args, 1, false},
				{"race build", args, 8, true},
				{"4 sessions", Args{Clients: 4, Txns: 10, Pool: 4, Shards: 2}, 8, false},
			} {
				failed, skipped := e.judge(rs, host.args, host.cpus, host.race)
				if len(failed) > 0 {
					t.Errorf("%s on %s: speedup gate failed the run: %v", e.Name, host.name, failed)
				}
				if len(skipped) != 1 || !strings.HasPrefix(skipped[0], g.Name+": ") {
					t.Errorf("%s on %s: gates_skipped = %v, want one entry for %q", e.Name, host.name, skipped, g.Name)
				}
			}
		}
		for name := range breakers {
			if !have[name] {
				t.Errorf("%s: gate %q is gone from the experiment table", e.Name, name)
			}
		}
	}
}

// TestExperimentValidate: every wall experiment needs -clients and
// -txns, and only the rows that scale a pool or a shard count object
// to a -pool or -shards below 2.
func TestExperimentValidate(t *testing.T) {
	ok := Args{Clients: 1, Txns: 1, Pool: 2, Shards: 2}
	for _, e := range Experiments() {
		if err := e.Validate(ok); err != nil {
			t.Errorf("%s rejects %+v: %v", e.Name, ok, err)
		}
		for _, bad := range []Args{{Clients: 0, Txns: 1, Pool: 2, Shards: 2}, {Clients: 1, Txns: 0, Pool: 2, Shards: 2}} {
			if e.Validate(bad) == nil {
				t.Errorf("%s accepts %+v", e.Name, bad)
			}
		}
		onePool, oneShard := Args{Clients: 1, Txns: 1, Pool: 1, Shards: 2}, Args{Clients: 1, Txns: 1, Pool: 2, Shards: 1}
		if got, want := e.Validate(onePool) != nil, e.Name == "pool-wall"; got != want {
			t.Errorf("%s rejects -pool 1: %v, want %v", e.Name, got, want)
		}
		if got, want := e.Validate(oneShard) != nil, e.Name == "shard-wall" || e.Name == "rebalance-wall"; got != want {
			t.Errorf("%s rejects -shards 1: %v, want %v", e.Name, got, want)
		}
	}
}
