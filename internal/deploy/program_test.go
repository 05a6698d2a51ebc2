package deploy_test

import (
	"fmt"
	"testing"

	"pyxis"
	"pyxis/internal/bench"
	"pyxis/internal/deploy"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
)

// TestDialRebuildsServedPrograms: the APP-side programs Dial rebuilds
// from what a shard serves are the programs the shard was given, block
// for block: the ledger, TPC-C at five budgets and TPC-W at 0.5, each
// served as the high program beside its system's budget-0 low one.
func TestDialRebuildsServedPrograms(t *testing.T) {
	ledger, err := bench.ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	tpcc, err := bench.DefaultTPCC().PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	tpcw, err := bench.DefaultTPCW().PyxisPartition(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*pyxis.Partition{"ledger 1.00": ledger, "TPC-C 1.00": tpcc, "TPC-W 0.50": tpcw}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		p, err := tpcc.System.PartitionAt(frac)
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("TPC-C %.2f", frac)] = p
	}
	for name, high := range cases {
		low, err := high.System.PartitionAt(0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := deploy.Listen(&deploy.Shard{DB: sqldb.Open(), High: high, Low: low}, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		app, err := deploy.Dial(runtime.NewShardedClient(runtime.ShardMap{}), []string{srv.DB.Addr()}, []string{srv.Ctl.Addr()}, 1, nil)
		if err != nil {
			srv.Close()
			t.Fatalf("%s: %v", name, err)
		}
		for side, pair := range map[string][2]*pyxis.Partition{"high": {high, app.High}, "low": {low, app.Low}} {
			if pair[1] == nil {
				t.Errorf("%s: no %s partition rebuilt", name, side)
			} else if got, want := pair[1].Compiled.Disassemble(), pair[0].Compiled.Disassemble(); got != want {
				t.Errorf("%s: the rebuilt %s program differs from the served one:\n%s\nwant:\n%s", name, side, got, want)
			}
		}
		app.Close()
		srv.Close()
	}
}
