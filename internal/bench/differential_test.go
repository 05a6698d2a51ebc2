package bench

import (
	"fmt"
	"reflect"
	"testing"

	"pyxis"
	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
)

// interpTPCC replays runTPCC's single-client schedule through the
// reference interpreter on the source program and returns the database
// it leaves.
func interpTPCC(t *testing.T, c TPCCConfig, txns int, mix TPCCMix) *sqldb.DB {
	t.Helper()
	sys, err := pyxis.Load(TPCCSource)
	if err != nil {
		t.Fatal(err)
	}
	db := c.Load()
	ip := interp.New(sys.Prog, dbapi.NewLocal(db))
	obj, err := ip.NewObject("TPCC")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < txns; k++ {
		tx := c.parallelTxn(mix, 0, k)
		if _, err := ip.CallEntry(sys.Prog.Method("TPCC", tx.method), obj, tx.args...); err != nil {
			t.Fatalf("reference: txn %d %s: %v", k, tx.method, err)
		}
	}
	return db
}

// runTPCCInProc replays runTPCC's single-client schedule on part
// deployed in-process and returns the database it leaves and the
// control transfers the DB side served. It runs variants no server can
// serve: a tier rebuilds its APP side from the spec its server serves,
// and a spec describes the fused program only.
func runTPCCInProc(t *testing.T, part *pyxis.Partition, c TPCCConfig, txns int, mix TPCCMix) (*sqldb.DB, int64) {
	t.Helper()
	db := c.Load()
	dep := part.Deploy(db, runtime.Options{})
	defer dep.Client.Close()
	obj, err := dep.Client.NewObject("TPCC")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < txns; k++ {
		tx := c.parallelTxn(mix, 0, k)
		if _, err := dep.Client.CallEntry("TPCC."+tx.method, obj, tx.args...); err != nil {
			t.Fatalf("txn %d %s: %v", k, tx.method, err)
		}
	}
	return db, dep.DBPeer.Metrics.Snapshot().Transfers
}

// TestDifferentialTPCC runs one single-client TPC-C NewOrder/Payment
// schedule through the reference interpreter on the source program and
// through the partitioned program, unfused and fused, at three budgets,
// and requires:
//
//   - both compiled runs to end in the interpreter's database, bit for
//     bit (every table, every row), with the TPC-C consistency
//     invariants holding;
//   - the fused run to make no more control transfers than the unfused.
//
// The fused program runs on a deployed tier (runTPCC), whose APP
// side is rebuilt from what the server serves; the unfused one, which
// no server serves, runs in-process (runTPCCInProc).
//
// The interpreter shares no code with compile, the block executor, the
// transfer codec or heap sync, and the unfused program ships every slot
// where the fused ships the live ones: a wrong liveness mask moves the
// fused database off the reference. One client keeps the schedule
// deterministic — parallelTxn is a pure function of the sequence
// number, and without concurrency there are no deadlock-retry
// reorderings.
func TestDifferentialTPCC(t *testing.T) {
	c := DefaultTPCC()
	cfg, mix := WallCfg{Clients: 1, Txns: 40}, TPCCMix{PaymentEvery: 3}
	want := interpTPCC(t, c, cfg.Txns, mix).Snapshot()
	for _, budget := range []float64{1.0, 0.5, 0} {
		t.Run(fmt.Sprintf("budget%.2f", budget), func(t *testing.T) {
			fused, err := c.PyxisPartition(budget)
			if err != nil {
				t.Fatal(err)
			}
			unfused := *fused
			if unfused.Compiled, err = compile.Compile(fused.PyxIL); err != nil {
				t.Fatal(err)
			}
			var transfers [2]int64
			var blocks [2]int
			for i, part := range []*pyxis.Partition{&unfused, fused} {
				name := [2]string{"unfused", "fused"}[i]
				var db *sqldb.DB
				if part == fused {
					r := runTPCC(t, part, c, cfg, mix)
					db, transfers[i] = r.db, r.transfers
				} else {
					db, transfers[i] = runTPCCInProc(t, part, c, cfg.Txns, mix)
				}
				blocks[i] = len(part.Compiled.Blocks)
				if got := db.Snapshot(); !reflect.DeepEqual(got, want) {
					for table, rows := range want {
						if !reflect.DeepEqual(rows, got[table]) {
							t.Errorf("%s: table %s diverged: interpreter %d rows, deployment %d rows",
								name, table, len(rows), len(got[table]))
						}
					}
					t.Errorf("%s program left a different database than the reference interpreter", name)
				}
				if violations := CheckTPCCInvariants(db, c); len(violations) > 0 {
					t.Errorf("%s run violated TPC-C invariants: %v", name, violations)
				}
			}
			if blocks[1] > blocks[0] {
				t.Errorf("fusion grew the program: %d -> %d blocks", blocks[0], blocks[1])
			}
			if transfers[1] > transfers[0] {
				t.Errorf("fusion increased transfers: %d -> %d", transfers[0], transfers[1])
			}
		})
	}
}
