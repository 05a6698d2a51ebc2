package pyxis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pyxis/internal/compile"
	"pyxis/internal/core"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/pyxil"
	"pyxis/internal/runtime"
	"pyxis/internal/solver"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
	"pyxis/internal/verify"
)

// orderSrc is the paper's running example (Fig. 2), extended with the
// database-access methods the paper elides.
const orderSrc = `
class Order {
    int id;
    double[] realCosts;
    double totalCost;

    Order(int id) {
        this.id = id;
    }

    entry double placeOrder(int cid, double dct) {
        totalCost = 0;
        computeTotalCost(dct);
        updateAccount(cid, totalCost);
        return totalCost;
    }

    void computeTotalCost(double dct) {
        int i = 0;
        double[] costs = getCosts();
        realCosts = new double[costs.length];
        for (double itemCost : costs) {
            double realCost;
            realCost = itemCost * dct;
            totalCost += realCost;
            realCosts[i] = realCost;
            insertNewLineItem(id, i, realCost);
            i++;
        }
    }

    double[] getCosts() {
        table t = db.query("SELECT cost FROM line_items WHERE order_id = ? ORDER BY num", id);
        double[] costs = new double[t.rows()];
        for (int r = 0; r < t.rows(); r++) {
            costs[r] = t.getDouble(r, 0);
        }
        return costs;
    }

    void insertNewLineItem(int oid, double num, double cost) {
        db.update("INSERT INTO new_line_items VALUES (?, ?, ?)", oid, num, cost);
    }

    void updateAccount(int cid, double total) {
        db.update("UPDATE accounts SET balance = balance - ? WHERE cid = ?", total, cid);
    }

    entry double lastRealCost() {
        if (realCosts == null) {
            return -1.0;
        }
        if (realCosts.length == 0) {
            return 0.0;
        }
        return realCosts[realCosts.length - 1];
    }
}
`

func orderSchema(t testing.TB, items int) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	s := db.NewSession()
	stmts := []string{
		"CREATE TABLE line_items (order_id INT, num INT, cost DOUBLE, PRIMARY KEY (order_id, num))",
		"CREATE TABLE new_line_items (order_id INT, num INT, cost DOUBLE, PRIMARY KEY (order_id, num))",
		"CREATE TABLE accounts (cid INT PRIMARY KEY, balance DOUBLE)",
	}
	for _, sql := range stmts {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for i := 0; i < items; i++ {
		if _, err := s.Exec("INSERT INTO line_items VALUES (7, ?, ?)",
			val.IntV(int64(i)), val.DoubleV(float64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("INSERT INTO accounts VALUES (3, 1000.0)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// oracleRun executes the workload on a fresh parse with the reference
// interpreter and returns (results, db snapshot).
func oracleRun(t *testing.T, items int) ([]val.Value, map[string][][]val.Value) {
	t.Helper()
	db := orderSchema(t, items)
	sys := MustLoad(orderSrc)
	ip := interp.New(sys.Prog, dbapi.NewLocal(db))
	obj, err := ip.NewObject("Order", interp.Scalar(val.IntV(7)))
	if err != nil {
		t.Fatal(err)
	}
	var results []val.Value
	r1, err := ip.CallEntry(sys.Prog.Method("Order", "placeOrder"), obj, val.IntV(3), val.DoubleV(0.9))
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r1)
	r2, err := ip.CallEntry(sys.Prog.Method("Order", "lastRealCost"), obj)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r2)
	return results, db.Snapshot()
}

func profiledSystem(t *testing.T, items int) *System {
	t.Helper()
	sys := MustLoad(orderSrc)
	profDB := orderSchema(t, items)
	err := sys.ProfileWorkload(profDB, func(ip *interp.Interp) error {
		obj, err := ip.NewObject("Order", interp.Scalar(val.IntV(7)))
		if err != nil {
			return err
		}
		if _, err := ip.CallEntry(sys.Prog.Method("Order", "placeOrder"), obj, val.IntV(3), val.DoubleV(0.9)); err != nil {
			return err
		}
		_, err = ip.CallEntry(sys.Prog.Method("Order", "lastRealCost"), obj)
		return err
	})
	if err != nil {
		t.Fatalf("profiling: %v", err)
	}
	return sys
}

func snapshotsEqual(a, b map[string][][]val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for name, rowsA := range a {
		rowsB, ok := b[name]
		if !ok || len(rowsA) != len(rowsB) {
			return false
		}
		for i := range rowsA {
			if len(rowsA[i]) != len(rowsB[i]) {
				return false
			}
			for j := range rowsA[i] {
				if !rowsA[i][j].Equal(rowsB[i][j]) {
					return false
				}
			}
		}
	}
	return true
}

// placeWith is the placement of g at budget that one arm of
// TestRuntimeMatchesInterpreter runs.
type placeWith func(g *pdg.Graph, budget float64) (pdg.Placement, error)

// partitionAt runs System.Partition's stages on the placement place
// gives at a fraction of the total load, with or without the §4.4
// reordering.
func partitionAt(sys *System, place placeWith, frac float64, noReorder bool) (*Partition, error) {
	g := sys.EnsureGraph()
	p, err := place(g, sys.TotalLoad()*frac)
	if err != nil {
		return nil, err
	}
	px := pyxil.Generate(sys.Analysis, g, p, pyxil.Options{NoReorder: noReorder})
	compiled, err := compile.Compile(px)
	if err != nil {
		return nil, err
	}
	compile.Fuse(compiled)
	if err := verify.Program(compiled); err != nil {
		return nil, err
	}
	return &Partition{System: sys, Place: p, PyxIL: px, Compiled: compiled}, nil
}

// TestRuntimeMatchesInterpreter is the central semantic-preservation
// property (README, "Execution pipeline and the fused hot path"): at
// every budget, with and without reordering, the partitioned runtime
// produces the same entry results and the same final database state as
// the reference interpreter. The arms are three ways to place the
// program: "bnb" is the partitioner's own (solver.Auto, which solves
// this program by exact branch and bound), "mincut" the Lagrangian min
// cut Auto falls back to on large graphs, and "greedy" the all-APP
// placement at every budget (the arm names are the subtests' stable
// IDs). Together they cover three distinct placements.
func TestRuntimeMatchesInterpreter(t *testing.T) {
	const items = 5
	wantResults, wantDB := oracleRun(t, items)

	arms := map[string]placeWith{
		"bnb": func(g *pdg.Graph, budget float64) (pdg.Placement, error) {
			place, _, err := core.New(g).Partition(budget)
			return place, err
		},
		"mincut": func(g *pdg.Graph, budget float64) (pdg.Placement, error) {
			prob, ids, err := core.Lower(g, budget)
			if err != nil {
				return nil, err
			}
			sol, err := (&solver.MinCutSolver{}).Solve(prob)
			if err != nil {
				return nil, err
			}
			return core.Lift(g, prob, ids, sol), nil
		},
		"greedy": func(g *pdg.Graph, _ float64) (pdg.Placement, error) {
			place, _, err := core.New(g).Partition(0)
			return place, err
		},
	}
	for arm, place := range arms {
		for _, frac := range []float64{0, 0.1, 0.3, 0.5, 0.8, 1.0} {
			for _, noReorder := range []bool{false, true} {
				name := fmt.Sprintf("%s/budget=%.1f/noreorder=%v", arm, frac, noReorder)
				t.Run(name, func(t *testing.T) {
					sys := profiledSystem(t, items)
					part, err := partitionAt(sys, place, frac, noReorder)
					if err != nil {
						t.Fatalf("partition: %v", err)
					}
					db := orderSchema(t, items)
					dep := part.Deploy(db, runtime.Options{})
					oid, err := dep.Client.NewObject("Order", val.IntV(7))
					if err != nil {
						t.Fatalf("NewObject: %v", err)
					}
					r1, err := dep.Client.CallEntry("Order.placeOrder", oid, val.IntV(3), val.DoubleV(0.9))
					if err != nil {
						t.Fatalf("placeOrder: %v\npyxil:\n%s", err, part.PyxIL.String())
					}
					r2, err := dep.Client.CallEntry("Order.lastRealCost", oid)
					if err != nil {
						t.Fatalf("lastRealCost: %v", err)
					}
					if !r1.Equal(wantResults[0]) || !r2.Equal(wantResults[1]) {
						t.Errorf("results = %v,%v want %v,%v\npyxil:\n%s",
							r1, r2, wantResults[0], wantResults[1], part.PyxIL.String())
					}
					if !snapshotsEqual(db.Snapshot(), wantDB) {
						t.Errorf("database state diverged\npyxil:\n%s", part.PyxIL.String())
					}
				})
			}
		}
	}
}

// TestBudgetZeroIsClientSide: zero budget degenerates to the JDBC-like
// partition — no statements on the database, no control transfers, one
// database round trip per operation (paper §4.3).
func TestBudgetZeroIsClientSide(t *testing.T) {
	sys := profiledSystem(t, 5)
	part, err := sys.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if part.Report.DBNodes != 0 {
		t.Errorf("DBNodes = %d, want 0", part.Report.DBNodes)
	}
	db := orderSchema(t, 5)
	dep := part.Deploy(db, runtime.Options{})
	oid, err := dep.Client.NewObject("Order", val.IntV(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Client.CallEntry("Order.placeOrder", oid, val.IntV(3), val.DoubleV(0.9)); err != nil {
		t.Fatal(err)
	}
	ctl, dbWire := dep.WireStats()
	if ctl.Calls != 0 {
		t.Errorf("control transfers = %d, want 0", ctl.Calls)
	}
	// getCosts query + 5 inserts + 1 update = 7 DB round trips.
	if dbWire.Calls != 7 {
		t.Errorf("db round trips = %d, want 7", dbWire.Calls)
	}
}

// TestHighBudgetIsStoredProcedure: with a full budget the partition
// behaves like the Manual stored-procedure implementation — database
// operations run colocated (no per-op round trips) and the whole
// transaction costs a handful of control transfers.
func TestHighBudgetIsStoredProcedure(t *testing.T) {
	sys := profiledSystem(t, 5)
	part, err := sys.PartitionAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if part.Report.DBNodes == 0 {
		t.Fatalf("expected statements on the DB, got none: %s", part.Describe())
	}
	db := orderSchema(t, 5)
	dep := part.Deploy(db, runtime.Options{})
	oid, err := dep.Client.NewObject("Order", val.IntV(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Client.CallEntry("Order.placeOrder", oid, val.IntV(3), val.DoubleV(0.9)); err != nil {
		t.Fatal(err)
	}
	ctl, dbWire := dep.WireStats()
	if dbWire.Calls != 0 {
		t.Errorf("app-side db round trips = %d, want 0 (ops should be colocated)", dbWire.Calls)
	}
	if ctl.Calls == 0 || ctl.Calls > 4 {
		t.Errorf("control transfers = %d, want 1..4 (stored-procedure-like)", ctl.Calls)
	}
	total := ctl.Calls + dbWire.Calls
	if total >= 7 {
		t.Errorf("round trips = %d, expected far fewer than JDBC's 7", total)
	}
}

// TestPyxILRendersPlacements checks the Fig. 3 artifacts: a mid-budget
// partition annotates statements with both :APP: and :DB: and inserts
// sync operations; the extreme budgets produce single-sided programs.
func TestPyxILRendersPlacements(t *testing.T) {
	sys := profiledSystem(t, 5)
	mixed := false
	var out string
	for _, frac := range []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9} {
		mid, err := sys.PartitionAt(frac)
		if err != nil {
			t.Fatal(err)
		}
		out = mid.PyxIL.String()
		if strings.Contains(out, ":DB:") && strings.Contains(out, ":APP:") &&
			strings.Contains(out, "send") {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Errorf("no intermediate budget produced a mixed partition with sync ops; last:\n%s", out)
	}

	low, err := sys.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(low.PyxIL.String(), ":DB: ") {
		t.Errorf("budget-0 PyxIL should have no :DB: statements")
	}
	high, err := sys.PartitionAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(high.PyxIL.String(), ":DB:") {
		t.Errorf("full-budget PyxIL should place statements on :DB:")
	}
}

// TestGraphHasPaperEdgeKinds checks Fig. 4's ingredients exist for the
// running example: control, data and update edges, a pinned database
// code node, and the JDBC same-partition group.
func TestGraphHasPaperEdgeKinds(t *testing.T) {
	sys := profiledSystem(t, 5)
	g := sys.EnsureGraph()
	kinds := map[pdg.EdgeKind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	for _, k := range []pdg.EdgeKind{pdg.CtrlEdge, pdg.DataEdge, pdg.UpdateEdge, pdg.OutputEdge, pdg.AntiEdge} {
		if kinds[k] == 0 {
			t.Errorf("no %v edges in partition graph", k)
		}
	}
	if len(g.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (JDBC constraint)", len(g.Groups))
	}
	if len(g.Groups[0]) != 3 {
		t.Errorf("JDBC group size = %d, want 3 (query + 2 updates)", len(g.Groups[0]))
	}
	if g.Nodes[g.DBCodeID] == nil || g.Nodes[g.DBCodeID].Pin != pdg.DB {
		t.Error("database code node missing or not pinned to DB")
	}
	dot := g.DOT(nil)
	if !strings.Contains(dot, "digraph partition") {
		t.Error("DOT export malformed")
	}
}

// TestMonotoneRoundTrips: higher budgets must never need more total
// round trips than lower budgets on this workload.
func TestMonotoneRoundTrips(t *testing.T) {
	fracs := []float64{0, 0.3, 1.0}
	var trips []int64
	for _, f := range fracs {
		sys := profiledSystem(t, 8)
		part, err := sys.PartitionAt(f)
		if err != nil {
			t.Fatal(err)
		}
		db := orderSchema(t, 8)
		dep := part.Deploy(db, runtime.Options{})
		oid, err := dep.Client.NewObject("Order", val.IntV(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Client.CallEntry("Order.placeOrder", oid, val.IntV(3), val.DoubleV(0.9)); err != nil {
			t.Fatal(err)
		}
		ctl, dbWire := dep.WireStats()
		trips = append(trips, ctl.Calls+dbWire.Calls)
	}
	for i := 1; i < len(trips); i++ {
		if trips[i] > trips[i-1] {
			t.Errorf("round trips increased with budget: %v (fracs %v)", trips, fracs)
		}
	}
	if trips[len(trips)-1] >= trips[0] {
		t.Errorf("full budget (%d trips) should beat zero budget (%d trips)", trips[len(trips)-1], trips[0])
	}
}

// TestClientCloseReleasesAbandonedTxn: an APP-side session that errors
// mid-transaction (after taking an X row lock over the database wire)
// must release that lock when its client is closed, or every other
// session touching the row blocks forever.
func TestClientCloseReleasesAbandonedTxn(t *testing.T) {
	const src = `
class T {
    T() { }
    entry int poison(int d) {
        db.begin();
        db.update("UPDATE kv SET v = 99 WHERE k = 1");
        int x = 10 / d;
        db.commit();
        return x;
    }
    entry int write(int v) {
        return db.update("UPDATE kv SET v = ? WHERE k = 1", v);
    }
}
`
	sys := MustLoad(src)
	db := sqldb.Open()
	if err := ExecScript(db, "CREATE TABLE kv (k INT PRIMARY KEY, v INT); INSERT INTO kv VALUES (1, 7)"); err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileSynthetic(sqldb.Open()); err != nil {
		t.Fatal(err)
	}
	part, err := sys.PartitionAt(0) // all-APP: the txn runs over the db wire
	if err != nil {
		t.Fatal(err)
	}
	dep := part.Deploy(db, runtime.Options{})

	c1 := dep.NewSession()
	oid, err := c1.NewObject("T")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CallEntry("T.poison", oid, val.IntV(0)); err == nil {
		t.Fatal("poison should fail mid-transaction")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := dep.NewSession()
	oid2, err := c2.NewObject("T")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c2.CallEntry("T.write", oid2, val.IntV(42))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second session blocked on a lock the closed session abandoned")
	}
	if rows := db.Snapshot()["KV"]; len(rows) != 1 || rows[0][1].I != 42 {
		t.Fatalf("final row = %v, want [1 42]", rows)
	}
}
