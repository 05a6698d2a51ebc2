package bench

import (
	"fmt"
	"testing"

	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestRowsScannedExact pins the rows each transaction makes the engine
// enumerate (sqldb.Stats.RowsScanned: candidates, before the conjuncts
// filter them), run at budget 1 on a fresh database. Every TPC-C access
// is a point or prefix probe: one candidate per row touched. The TPC-W
// interactions are what access paths are for: home's i_id <= 5 walks the
// PK, newProducts walks idx_item_date from its bound, bestSellers' author
// join probes item then author by key. Only searchByTitle and
// bestSellers' top-N still scan the 1 000 items: i_title has no index,
// and an ordered walk that stops after LIMIT rows would lock fewer rows
// than match.
func TestRowsScannedExact(t *testing.T) {
	type call struct {
		entry string
		args  []val.Value
		want  int64
	}
	run := func(t *testing.T, class string, db *sqldb.DB, dep *runtime.Deployment, calls []call) {
		t.Helper()
		defer dep.Client.Close()
		oid, err := dep.Client.NewObject(class)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			before := db.Stats().RowsScanned
			if _, err := dep.Client.CallEntry(class+"."+c.entry, oid, c.args...); err != nil {
				t.Fatalf("%s%v: %v", c.entry, c.args, err)
			}
			if got := db.Stats().RowsScanned - before; got != c.want {
				t.Errorf("%s%v: %d rows scanned, want %d", c.entry, c.args, got, c.want)
			}
		}
	}
	i := func(n int64) val.Value { return val.IntV(n) }

	t.Run("TPCC", func(t *testing.T) {
		cfg := DefaultTPCC()
		part, err := cfg.PyxisPartition(1.0)
		if err != nil {
			t.Fatal(err)
		}
		db := cfg.Load()
		run(t, "TPCC", db, part.Deploy(db, runtime.Options{}), []call{
			// 4 point reads and the district update, then per line the
			// item/stock join (2) and the stock update; inserts probe no
			// candidates.
			{"newOrder", []val.Value{i(1), i(1), i(1), i(5), i(7), i(int64(cfg.Items)), val.BoolV(false)}, 19},
			{"payment", []val.Value{i(1), i(1), i(1), val.DoubleV(5)}, 4},
		})
	})

	t.Run("TPCW", func(t *testing.T) {
		cfg := DefaultTPCW()
		part, err := cfg.PyxisPartition(1.0)
		if err != nil {
			t.Fatal(err)
		}
		db := cfg.Load()
		run(t, "TPCW", db, part.Deploy(db, runtime.Options{}), []call{
			{"home", []val.Value{i(1)}, 1 + 5},
			{"productDetail", []val.Value{i(5)}, 2},
			{"bestSellers", nil, 1000 + 20*2},
			{"searchByTitle", []val.Value{i(5)}, 1000},
			{"newProducts", []val.Value{i(20003000)}, 0},
			{"newProducts", []val.Value{i(20000901)}, 100},
		})
	})
}

// TestLikeUnderscore: '_' matches exactly one character.
func TestLikeUnderscore(t *testing.T) {
	db := DefaultTPCW().Load()
	rs, err := db.NewSession().Query("SELECT i_title FROM item WHERE i_title LIKE 'book title 5_'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 10 {
		t.Fatalf("LIKE 'book title 5_' returned %d rows, want 10: %v", len(rs.Rows), rs.Rows)
	}
	for k, row := range rs.Rows {
		if want := fmt.Sprintf("book title %d", 50+k); row[0].S != want {
			t.Errorf("row %d = %q, want %q", k, row[0].S, want)
		}
	}
}
