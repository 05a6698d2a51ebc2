package pdg

import (
	"maps"
	"strings"
	"testing"

	"pyxis/internal/analysis"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/profile"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

const src = `
class C {
    int total;

    C() {
        total = 0;
    }

    entry int work(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            table t = db.query("SELECT v FROM kv WHERE k = ?", i % 3);
            s += t.getInt(0, 0);
        }
        total = s;
        sys.print("done", s);
        return s;
    }
}
`

func build(t *testing.T) (*source.Program, *Graph, *profile.Profile) {
	t.Helper()
	prog, err := source.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Run(prog)
	db := sqldb.Open()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Exec("INSERT INTO kv VALUES (?, ?)", val.IntV(int64(i)), val.IntV(int64(i+10))); err != nil {
			t.Fatal(err)
		}
	}
	prof := profile.New()
	ip := interp.New(prog, dbapi.NewLocal(db))
	ip.Hooks = prof.Hooks()
	obj, err := ip.NewObject("C")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.CallEntry(prog.Method("C", "work"), obj, val.IntV(9)); err != nil {
		t.Fatal(err)
	}
	g := Build(res, prof, Options{})
	return prog, g, prof
}

func TestWeightsFollowProfile(t *testing.T) {
	prog, g, prof := build(t)
	// Loop-body statements executed 9 times weigh 9; the entry-only
	// statements weigh ~1.
	var loopNode, headNode *Node
	for id, s := range prog.Stmts {
		if as, ok := s.(*source.AssignStmt); ok && as.Op == source.AsnAdd {
			if v, ok := as.LHS.(*source.VarExpr); ok && v.Local.Name == "s" {
				loopNode = g.Nodes[id]
			}
		}
		if _, ok := s.(*source.WhileStmt); ok {
			headNode = g.Nodes[id]
		}
	}
	if loopNode == nil || headNode == nil {
		t.Fatal("fixture nodes missing")
	}
	if loopNode.Weight != 9 {
		t.Errorf("loop body weight = %v, want 9", loopNode.Weight)
	}
	if headNode.Weight != 10 {
		t.Errorf("loop head weight = %v, want 10 (9 iterations + exit check)", headNode.Weight)
	}
	_ = prof
}

func TestPinsAndGroups(t *testing.T) {
	prog, g, _ := build(t)
	if g.Nodes[g.DBCodeID].Pin != DB {
		t.Error("db code must pin DB")
	}
	if g.Nodes[g.AppClientID].Pin != App {
		t.Error("app client must pin APP")
	}
	for id, s := range prog.Stmts {
		if source.HasPrint(s) && g.Nodes[id].Pin != App {
			t.Error("print statements must pin APP")
		}
	}
	if len(g.Groups) != 0 {
		t.Errorf("groups = %v (a single db stmt needs no group)", g.Groups)
	}
}

func TestCutCostAndValidate(t *testing.T) {
	_, g, _ := build(t)
	allApp := Placement{}
	for id := range g.Nodes {
		allApp[id] = App
	}
	allApp[g.DBCodeID] = DB
	cut, load := g.CutCost(allApp)
	if load != 0 {
		t.Errorf("all-APP load = %v", load)
	}
	if cut <= 0 {
		t.Error("all-APP must cut the db-code edges")
	}
	if err := g.Validate(allApp); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
	bad := Placement{}
	for id := range g.Nodes {
		bad[id] = App
	}
	if err := g.Validate(bad); err == nil {
		t.Error("placement violating the DB pin must be rejected")
	}
}

func TestDOTAndStats(t *testing.T) {
	_, g, _ := build(t)
	dot := g.DOT(nil)
	for _, want := range []string{"digraph partition", "database code", "application client"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if !strings.Contains(g.Stats(), "nodes=") {
		t.Error("stats malformed")
	}
}

func TestLocString(t *testing.T) {
	if App.String() != "APP" || DB.String() != "DB" || Unpinned.String() != "-" {
		t.Error("Loc strings")
	}
	p := Placement{}
	if p.Of(999) != App {
		t.Error("default placement should be App")
	}
}

// TestRandomAssignRepeats: a seed names one placement. The fields used
// to be placed in map order, so two compiles of one program — the two
// halves of a deployment — could disagree on which fields the seed put
// on the database server.
func TestRandomAssignRepeats(t *testing.T) {
	const fieldsSrc = `
class F {
    int a; int b; int c; int d; int e; int f; int g; int h;
    entry int sum() { return a + b + c + d + e + f + g + h; }
}
`
	placeOnce := func() Placement {
		prog, err := source.Load(fieldsSrc)
		if err != nil {
			t.Fatal(err)
		}
		g := Build(analysis.Run(prog), profile.New(), Options{})
		place := Placement{}
		for id := range g.Nodes {
			place[id] = App
		}
		RandomAssign(3)(g, place)
		return place
	}
	want := placeOnce()
	db := 0
	for _, loc := range want {
		if loc == DB {
			db++
		}
	}
	if db == 0 || db == len(want) {
		t.Fatalf("seed places %d of %d nodes on the DB; the test needs a mixed placement", db, len(want))
	}
	for i := 0; i < 50; i++ {
		if got := placeOnce(); !maps.Equal(got, want) {
			t.Fatalf("run %d: the same seed gave another placement:\n got %v\nwant %v", i, got, want)
		}
	}
}
