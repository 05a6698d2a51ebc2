package deploy_test

import (
	"fmt"
	"testing"

	"pyxis"
	"pyxis/internal/bench"
	"pyxis/internal/deploy"
	"pyxis/internal/sqldb"
)

// TestDialRebuildsServedPrograms: the APP-side programs Dial rebuilds
// from what a shard serves are the programs the shard was given, block
// for block: the ledger, TPC-C at five budgets and TPC-W at 0.5.
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
	for name, part := range cases {
		srv, err := deploy.Listen(&deploy.Shard{DB: sqldb.Open(), Partition: part}, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		app, err := deploy.Dial(srv.DB.Addr(), srv.Ctl.Addr(), 1, nil)
		if err != nil {
			srv.Close()
			t.Fatalf("%s: %v", name, err)
		}
		if app.Partition == nil {
			t.Errorf("%s: no partition rebuilt", name)
		} else if got, want := app.Partition.Compiled.Disassemble(), part.Compiled.Disassemble(); got != want {
			t.Errorf("%s: the rebuilt program differs from the served one:\n%s\nwant:\n%s", name, got, want)
		}
		app.Close()
		srv.Close()
	}
}
