package compile

import (
	"sort"
	"strings"
	"testing"

	"pyxis/internal/analysis"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/pyxil"
	"pyxis/internal/source"
)

const src = `
class P {
    int a;
    double b;

    P() {
        a = 1;
        b = 2.5;
    }

    entry int work(int n) {
        int s = 0;
        while (s < n) {
            s += step(s);
        }
        if (s > 100) {
            return 100;
        }
        return s;
    }

    int step(int x) {
        return x + 1;
    }
}
`

func compileSplit(t *testing.T) *Program {
	t.Helper()
	prog, err := source.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Run(prog)
	g := pdg.Build(res, profile.New(), pdg.Options{})
	place := pdg.Placement{}
	for id := range g.Nodes {
		place[id] = pdg.App
	}
	place[g.DBCodeID] = pdg.DB
	// Field b and method step on the DB.
	for id, f := range prog.Fields {
		if f.Name == "b" {
			place[id] = pdg.DB
		}
	}
	m := prog.Method("P", "step")
	place[m.EntryID] = pdg.DB
	source.WalkMethodStmts(m, func(s source.Stmt) bool {
		place[s.ID()] = pdg.DB
		return true
	})
	px := pyxil.Generate(res, g, place, pyxil.Options{})
	compiled, err := Compile(px)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

func TestClassSplitting(t *testing.T) {
	p := compileSplit(t)
	ci := p.Classes["P"]
	if ci == nil {
		t.Fatal("class P missing")
	}
	if ci.NumApp != 1 || ci.NumDB != 1 {
		t.Fatalf("part sizes = %d/%d, want 1/1", ci.NumApp, ci.NumDB)
	}
	if ci.Fields[0].Loc != pdg.App || ci.Fields[1].Loc != pdg.DB {
		t.Errorf("field placements wrong: %v %v", ci.Fields[0].Loc, ci.Fields[1].Loc)
	}
	zero := ci.ZeroPart(pdg.DB)
	if len(zero) != 1 || zero[0].F != 0 {
		t.Errorf("zero DB part = %v", zero)
	}
	if ci.Ctor == nil {
		t.Error("constructor missing")
	}
}

func TestBlockInvariants(t *testing.T) {
	p := compileSplit(t)
	if len(p.Blocks) == 0 {
		t.Fatal("no blocks")
	}
	appB, dbB := 0, 0
	for _, b := range p.Blocks {
		if int(b.ID) >= len(p.Blocks) {
			t.Fatalf("block id out of range: %d", b.ID)
		}
		if b.Loc == pdg.DB {
			dbB++
		} else {
			appB++
		}
		// Terminator targets must be valid blocks.
		check := func(id BlockID) {
			if id != NoBlock && (int(id) < 0 || int(id) >= len(p.Blocks)) {
				t.Fatalf("block %d: bad target %d", b.ID, id)
			}
		}
		switch b.Term.Kind {
		case TGoto:
			check(b.Term.Target)
		case TIf:
			check(b.Term.Then)
			check(b.Term.Else)
		case TCall:
			check(b.Term.Cont)
			if b.Term.Method == nil {
				t.Fatalf("block %d: call without method", b.ID)
			}
			// Arguments must fit in the callee frame.
			if len(b.Term.Args) > b.Term.Method.NSlots {
				t.Fatalf("block %d: %d args into %d slots", b.ID, len(b.Term.Args), b.Term.Method.NSlots)
			}
		}
	}
	if appB == 0 || dbB == 0 {
		t.Errorf("split program should have blocks on both sides: app=%d db=%d", appB, dbB)
	}

	// Every method entry block exists and slots cover locals.
	for _, m := range p.MethodList {
		if int(m.Entry) >= len(p.Blocks) {
			t.Fatalf("%s: bad entry block", m.QName)
		}
		if m.NSlots < 1+len(m.Params) {
			t.Fatalf("%s: %d slots < 1+%d params", m.QName, m.NSlots, len(m.Params))
		}
	}
	// All instruction slot operands stay within their method frames —
	// checked dynamically by the runtime tests; here we check statically
	// for the entry method.
	work := p.Method("P.work")
	seen := map[BlockID]bool{}
	var walk func(id BlockID)
	walk = func(id BlockID) {
		if id == NoBlock || seen[id] {
			return
		}
		seen[id] = true
		b := p.Block(id)
		for _, in := range b.Code {
			for _, slot := range []int{in.A, in.B, in.C} {
				if slot >= work.NSlots {
					t.Fatalf("block %d: slot %d >= frame size %d", id, slot, work.NSlots)
				}
			}
		}
		switch b.Term.Kind {
		case TGoto:
			walk(b.Term.Target)
		case TIf:
			walk(b.Term.Then)
			walk(b.Term.Else)
		case TCall:
			walk(b.Term.Cont)
		}
	}
	walk(work.Entry)
}

func TestDisassembleAndStats(t *testing.T) {
	p := compileSplit(t)
	dis := p.Disassemble()
	for _, want := range []string{"method P.work", "call P.step", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
	if !strings.Contains(p.Stats(), "blocks=") {
		t.Error("stats malformed")
	}
}

const concatSrc = `
class Page {
    string title;
    string[] rows;

    Page() {
        title = "t";
        rows = new string[2];
    }

    entry string render(string t, double p, int n) {
        string html = "<ul>";
        html = html + "<li>" + t + " $" + sys.str(p) + "</li>";
        html += sys.str(n) + sys.str(t + "!");
        title += t + "?";
        rows[n % 2] += t + "";
        return sys.str(n);
    }
}
`

// TestConcatFolds pins the string-building shapes: a `+` chain, sys.str
// inside it and around a chain, and `+=` of a chain onto a local, a
// field and an array element each compile to one concat over the leaf
// operands, the compound ones headed by the target's old value; a lone
// sys.str is a one-operand concat. No string `+` is left to OpBin.
func TestConcatFolds(t *testing.T) {
	p := compileAllApp(t, concatSrc)
	// Name each operand: render's parameters and html by name, any
	// other slot by the instruction that last wrote it.
	names := map[int]string{1: "t", 2: "p", 3: "n"}
	var got []string
	for _, b := range methodBlocks(p, p.Method("Page.render")) {
		for _, in := range b.Code {
			if in.Op == OpBin && source.BinOp(in.Sub) == source.OpAdd {
				t.Errorf("string + left to bin: %+v", in)
			}
			if in.Op == OpConcat {
				var ops []string
				for _, a := range in.Args {
					ops = append(ops, names[a])
				}
				got = append(got, strings.Join(ops, " "))
			}
			switch {
			case in.Op == OpMove && names[in.A] == "":
				names[in.A] = "html"
			case in.Op != OpSetField && in.Op != OpSetIdx && names[in.A] != "html":
				names[in.A] = opNames[in.Op]
			}
		}
	}
	want := []string{
		"getfield t const",           // title += t + "?"
		"getidx t const",             // rows[n % 2] += t + ""
		"html const t const p const", // html = html + "<li>" + t + " $" + sys.str(p) + "</li>"
		"html n t const",             // html += sys.str(n) + sys.str(t + "!")
		"n",                          // sys.str(n)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("concat operands:\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
