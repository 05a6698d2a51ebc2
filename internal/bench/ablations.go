package bench

import (
	"pyxis"
	"pyxis/internal/core"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/pyxil"
	"pyxis/internal/solver"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// This file backs the ablation benchmarks in bench_test.go: solver
// quality, statement reordering, and the data-edge weight model.

// interleavedSource alternates console output (pinned APP) with
// database updates (grouped; placed DB at high budget). In program
// order every adjacent pair changes placement; the two-queue reorder
// (§4.4) is free to group each side into one contiguous run.
const interleavedSource = `
class R {
    int n;

    R() {
        n = 0;
    }

    entry void run(int x) {
        sys.print("stage a", x);
        db.update("UPDATE t SET v = v + 1 WHERE k = 1");
        sys.print("stage b", x);
        db.update("UPDATE t SET v = v + 1 WHERE k = 2");
        sys.print("stage c", x);
        db.update("UPDATE t SET v = v + 1 WHERE k = 3");
        n++;
    }
}
`

func interleavedDB() *sqldb.DB {
	db := sqldb.Open()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		panic(err)
	}
	for k := 1; k <= 3; k++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, 0)", val.IntV(int64(k))); err != nil {
			panic(err)
		}
	}
	return db
}

// InterleavedReorderAblation fixes the natural placement of the
// interleaved program (console on APP, database statements on DB) and
// measures the static control-transfer count with and without the
// §4.4 reordering. The placement is fixed rather than solved because
// the cost model deliberately overestimates per-statement control
// cuts (paper §4.2 "our simple cost model does not always accurately
// estimate the cost of control transfers") — reordering is the
// mechanism that recovers the single-transfer reality.
func InterleavedReorderAblation() (reordered, unordered int, err error) {
	count := func(noReorder bool) (int, error) {
		sys, err := pyxis.Load(interleavedSource)
		if err != nil {
			return 0, err
		}
		prof := interleavedDB()
		err = sys.ProfileWorkload(prof, func(ip *interp.Interp) error {
			obj, err := ip.NewObject("R")
			if err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				if _, err := ip.CallEntry(sys.Prog.Method("R", "run"), obj, val.IntV(int64(i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		g := sys.EnsureGraph()
		place := pdg.Placement{}
		for id := range g.Nodes {
			place[id] = pdg.App
		}
		place[g.DBCodeID] = pdg.DB
		for id, s := range sys.Prog.Stmts {
			if source.HasDBCall(s) {
				place[id] = pdg.DB
			}
		}
		pyxil.Generate(sys.Analysis, g, place, pyxil.Options{NoReorder: noReorder})
		return pyxil.ControlTransfers(sys.Prog, place), nil
	}
	if unordered, err = count(true); err != nil {
		return
	}
	reordered, err = count(false)
	return
}

// TPCCSolverObjective lowers the profiled TPC-C graph at a fraction of
// its total load, solves it with solve, and returns the achieved
// objective (estimated seconds of cut network time).
func TPCCSolverObjective(solve func(*solver.Problem) (*solver.Solution, error), budgetFrac float64) (float64, error) {
	sys, err := profiledTPCCSystem(DefaultTPCC())
	if err != nil {
		return 0, err
	}
	prob, _, err := core.Lower(sys.EnsureGraph(), sys.TotalLoad()*budgetFrac)
	if err != nil {
		return 0, err
	}
	sol, err := solve(prob)
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// TPCCWeightAblation partitions TPC-C at the full budget on two graphs
// of one profile: with the paper's bandwidth-proportional data-edge
// weights, and with data edges (incorrectly) charged a full latency
// each. It returns how many statements each places on the database —
// the naive model grossly overestimates communication cost, which is
// exactly why the paper prices data movement at bandwidth (§4.2:
// updates piggy-back on control transfers).
func TPCCWeightAblation() (correct, naive float64, err error) {
	sys, err := profiledTPCCSystem(DefaultTPCC())
	if err != nil {
		return 0, 0, err
	}
	var dbStmts [2]float64
	for i, opts := range []pdg.Options{{}, {ChargeDataAtLatency: true}} {
		g := pdg.Build(sys.Analysis, sys.Profile, opts)
		_, rep, err := core.New(g).Partition(core.TotalLoad(g))
		if err != nil {
			return 0, 0, err
		}
		dbStmts[i] = float64(rep.DBNodes)
	}
	return dbStmts[0], dbStmts[1], nil
}

// profiledTPCCSystem loads and profiles the TPC-C PyxJ program.
func profiledTPCCSystem(c TPCCConfig) (*pyxis.System, error) {
	sys, err := pyxis.Load(TPCCSource)
	if err != nil {
		return nil, err
	}
	pcfg := TPCCConfig{Warehouses: 1, DistrictsPerW: 2, CustomersPerD: 5,
		Items: 100, MinLines: c.MinLines, MaxLines: c.MaxLines, RollbackPct: c.RollbackPct}
	profDB := pcfg.Load()
	err = sys.ProfileWorkload(profDB, func(ip *interp.Interp) error {
		obj, err := ip.NewObject("TPCC")
		if err != nil {
			return err
		}
		m := sys.Prog.Method("TPCC", "newOrder")
		for k := int64(0); k < 20; k++ {
			wid, did, cid, olcnt, seed, rb := pcfg.txnParams(k)
			if _, err := ip.CallEntry(m, obj, val.IntV(wid), val.IntV(did), val.IntV(cid),
				val.IntV(olcnt), val.IntV(seed), val.IntV(int64(pcfg.Items)), val.BoolV(rb)); err != nil {
				return err
			}
		}
		pm := sys.Prog.Method("TPCC", "payment")
		for k := int64(0); k < 8; k++ {
			wid, did, cid, _, _, _ := pcfg.txnParams(k)
			if _, err := ip.CallEntry(pm, obj, val.IntV(wid), val.IntV(did), val.IntV(cid),
				val.DoubleV(float64(k+1))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sys, nil
}
