package profile

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

func collect(t *testing.T, calls int) (*Profile, *source.Program) {
	t.Helper()
	p := New()
	return p, collectInto(t, p, calls)
}

// collectInto records one object's construction and calls runs of
// C.run(5) into p.
func collectInto(t *testing.T, p *Profile, calls int) *source.Program {
	t.Helper()
	prog, err := source.Load(`
class C {
    int f;
    C() { f = 0; }
    entry int run(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            s += i;
        }
        f = s;
        return s;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	ip := interp.New(prog, dbapi.NewLocal(sqldb.Open()))
	ip.Hooks = p.Hooks()
	obj, err := ip.NewObject("C")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		if _, err := ip.CallEntry(prog.Method("C", "run"), obj, val.IntV(5)); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

func findLoopBody(t *testing.T, prog *source.Program) source.NodeID {
	t.Helper()
	for id, s := range prog.Stmts {
		if as, ok := s.(*source.AssignStmt); ok && as.Op == source.AsnAdd {
			if v, ok := as.LHS.(*source.VarExpr); ok && v.Local.Name == "s" {
				return id
			}
		}
	}
	t.Fatal("loop body not found")
	return 0
}

func TestCountsScaleWithCalls(t *testing.T) {
	p1, prog := collect(t, 1)
	p3, _ := collect(t, 3)
	body := findLoopBody(t, prog)
	if p1.Count[body] != 5 {
		t.Errorf("1 call: body count = %d, want 5", p1.Count[body])
	}
	if p3.Count[findLoopBody(t, prog)] != 15 {
		t.Errorf("3 calls: body count = %d, want 15", p3.Count[findLoopBody(t, prog)])
	}
	m := prog.Method("C", "run")
	if p3.EntryCalls[m.EntryID] != 3 {
		t.Errorf("entry calls = %d, want 3", p3.EntryCalls[m.EntryID])
	}
}

func TestFieldSizesAndAverages(t *testing.T) {
	p, prog := collect(t, 2)
	var f *source.Field
	for _, fl := range prog.Class("C").Fields {
		if fl.Name == "f" {
			f = fl
		}
	}
	if p.FieldSizeN[f.ID] != 3 { // ctor + 2 runs
		t.Errorf("field writes = %d, want 3", p.FieldSizeN[f.ID])
	}
	if p.FieldAvgSize(f.ID) != 9 { // int
		t.Errorf("avg size = %v, want 9", p.FieldAvgSize(f.ID))
	}
	if p.AvgSize(99999) != DefaultSize {
		t.Error("unknown def should report default size")
	}
}

// TestScaleAndMerge: a profile scales and merges by recording more
// runs into it. Two runs recorded into one Profile hold, in every map
// (entry calls included), the sums of the same runs profiled apart.
func TestScaleAndMerge(t *testing.T) {
	one, _ := collect(t, 1)
	two, _ := collect(t, 2)
	both := New()
	collectInto(t, both, 1)
	collectInto(t, both, 2)
	for name, m := range map[string][3]map[source.NodeID]int64{
		"Count":        {one.Count, two.Count, both.Count},
		"SizeSum":      {one.SizeSum, two.SizeSum, both.SizeSum},
		"SizeN":        {one.SizeN, two.SizeN, both.SizeN},
		"FieldSizeSum": {one.FieldSizeSum, two.FieldSizeSum, both.FieldSizeSum},
		"FieldSizeN":   {one.FieldSizeN, two.FieldSizeN, both.FieldSizeN},
		"DBCalls":      {one.DBCalls, two.DBCalls, both.DBCalls},
		"EntryCalls":   {one.EntryCalls, two.EntryCalls, both.EntryCalls},
	} {
		sum := map[source.NodeID]int64{}
		for _, part := range m[:2] {
			for id, n := range part {
				sum[id] += n
			}
		}
		if !reflect.DeepEqual(sum, m[2]) {
			t.Errorf("%s: two runs in one profile = %v, want the sum of the runs apart %v", name, m[2], sum)
		}
	}
}

// TestJSONRoundTripsExactly: a profile is plain data, and
// encoding/json gives back the profile it was given.
func TestJSONRoundTripsExactly(t *testing.T) {
	p, _ := collect(t, 3)
	p.BandwidthBps = 1.0 / 3 // a value with no short decimal form
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Profile
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &q) {
		t.Errorf("profile changed through JSON:\n%+v\n%+v", p, &q)
	}
}

func TestStringRendersHottest(t *testing.T) {
	p, _ := collect(t, 1)
	if !strings.Contains(p.String(), "profile:") {
		t.Error("String() malformed")
	}
}
