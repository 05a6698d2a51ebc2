package core

import (
	"strings"
	"testing"

	"pyxis/internal/analysis"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/solver"
	"pyxis/internal/source"
)

func buildGraph(t *testing.T) *pdg.Graph {
	t.Helper()
	prog, err := source.Load(`
class C {
    int f;
    C() { f = 0; }
    entry int run(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            db.update("UPDATE t SET v = v + 1 WHERE k = 1");
            s += i;
        }
        db.update("UPDATE t SET v = ? WHERE k = 2", s);
        f = s;
        sys.print(s);
        return s;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Run(prog)
	prof := profile.New()
	// Fake counts: the loop ran hot.
	for id := range prog.Stmts {
		prof.Count[id] = 10
	}
	return pdg.Build(res, prof, pdg.Options{})
}

func TestLowerContractsGroups(t *testing.T) {
	g := buildGraph(t)
	prob, ids, err := Lower(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two db.update statements must share a variable.
	if len(g.Groups) != 1 || len(g.Groups[0]) != 2 {
		t.Fatalf("groups = %v", g.Groups)
	}
	a, b := ids[g.Groups[0][0]], ids[g.Groups[0][1]]
	if a != b {
		t.Errorf("JDBC group not contracted: vars %d, %d", a, b)
	}
	// Node weights of merged nodes accumulate.
	want := g.Nodes[g.Groups[0][0]].Weight + g.Nodes[g.Groups[0][1]].Weight
	if prob.NodeWeight[a] != want {
		t.Errorf("merged weight = %v, want %v", prob.NodeWeight[a], want)
	}
	// Pins survive lowering.
	if prob.Pin[ids[g.DBCodeID]] != solver.PinDB {
		t.Error("db code pin lost")
	}
	if prob.Pin[ids[g.AppClientID]] != solver.PinApp {
		t.Error("app client pin lost")
	}
}

func TestPartitionBudgetsMonotone(t *testing.T) {
	g := buildGraph(t)
	pt := New(g)
	prevDB := -1
	for _, frac := range []float64{0, 0.5, 1} {
		place, rep, err := pt.Partition(TotalLoad(g) * frac)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(place); err != nil {
			t.Fatal(err)
		}
		if rep.DBNodes < prevDB {
			// Not strictly guaranteed in general, but holds for this
			// fixture: more budget, more statements server-side.
			t.Errorf("DB statements decreased with budget: %d -> %d", prevDB, rep.DBNodes)
		}
		prevDB = rep.DBNodes
		if rep.Load > TotalLoad(g)*frac+1e-9 {
			t.Errorf("budget violated: load %v > %v", rep.Load, TotalLoad(g)*frac)
		}
	}
}

// TestBudgetLevels: a budget asked for as a fraction of TotalLoad, as
// System.PartitionAt asks, comes back in the Report with the total it
// is a fraction of.
func TestBudgetLevels(t *testing.T) {
	g := buildGraph(t)
	total := TotalLoad(g)
	for _, f := range []float64{0, 0.5, 1} {
		_, rep, err := New(g).Partition(f * total)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Budget != f*total || rep.TotalLoad != total {
			t.Errorf("fraction %v: budget %v of total %v, want %v of %v", f, rep.Budget, rep.TotalLoad, f*total, total)
		}
	}
}

func TestReportString(t *testing.T) {
	g := buildGraph(t)
	_, rep, err := New(g).Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "stmts(db/app)=0/") {
		t.Errorf("report incomplete: %s", rep)
	}
}
