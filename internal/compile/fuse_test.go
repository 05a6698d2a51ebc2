package compile

import (
	"testing"

	"pyxis/internal/analysis"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/pyxil"
	"pyxis/internal/source"
)

// compileAllApp compiles a source with everything on the APP side.
func compileAllApp(t *testing.T, src string) *Program {
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
	px := pyxil.Generate(res, g, place, pyxil.Options{})
	compiled, err := Compile(px)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// checkProgram verifies the structural invariants Fuse must preserve:
// dense IDs, valid terminator targets, valid method entries.
func checkProgram(t *testing.T, p *Program) {
	t.Helper()
	for i, b := range p.Blocks {
		if int(b.ID) != i {
			t.Fatalf("block at index %d has ID %d (not dense)", i, b.ID)
		}
		check := func(id BlockID) {
			if int(id) < 0 || int(id) >= len(p.Blocks) {
				t.Fatalf("block %d: terminator target %d out of range", b.ID, id)
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
		}
	}
	for _, m := range p.MethodList {
		if int(m.Entry) < 0 || int(m.Entry) >= len(p.Blocks) {
			t.Fatalf("method %s: entry %d out of range", m.QName, m.Entry)
		}
	}
}

// crossLocEdges counts terminator edges that land on the other side —
// the transfer-eligible boundaries.
func crossLocEdges(p *Program) int {
	n := 0
	edge := func(from *Block, to BlockID) {
		if p.Blocks[to].Loc != from.Loc {
			n++
		}
	}
	for _, b := range p.Blocks {
		switch b.Term.Kind {
		case TGoto:
			edge(b, b.Term.Target)
		case TIf:
			edge(b, b.Term.Then)
			edge(b, b.Term.Else)
		case TCall:
			edge(b, b.Term.Method.Entry)
			edge(b, b.Term.Cont)
		}
	}
	return n
}

func TestFuseShrinksAndStaysValid(t *testing.T) {
	p := compileSplit(t)
	before := len(p.Blocks)
	crossBefore := crossLocEdges(p)
	stats := Fuse(p)
	if !p.Fused {
		t.Error("Fused flag not set")
	}
	if stats.BlocksBefore != before || stats.BlocksAfter != len(p.Blocks) {
		t.Errorf("stats %+v inconsistent with program (%d→%d)", stats, before, len(p.Blocks))
	}
	if len(p.Blocks) >= before {
		t.Errorf("fusion did not shrink the program: %d → %d", before, len(p.Blocks))
	}
	if stats.Merged+stats.Threaded+stats.Dropped == 0 {
		t.Error("fusion found nothing to do on a program with dead continuations")
	}
	if got := crossLocEdges(p); got > crossBefore {
		t.Errorf("transfer-eligible boundaries grew under fusion: %d → %d", crossBefore, got)
	}
	checkProgram(t, p)
}

func TestFuseOnlyMergesSameLoc(t *testing.T) {
	p := compileSplit(t)
	Fuse(p)
	// Every block still has a single placement by construction; what
	// fusion must preserve is that no block "jumped" sides: re-walk and
	// confirm every cross-loc edge is still a block boundary (trivially
	// true — this guards against fusion ever concatenating mixed-loc
	// code, which would desync the placement check in Session.Run).
	for _, b := range p.Blocks {
		if b.Term.Kind == TGoto && p.Blocks[b.Term.Target].Loc == b.Loc {
			// A surviving same-loc goto must have a join (refcount>1)
			// or entry target; count its predecessors to prove it.
			preds := 0
			for _, o := range p.Blocks {
				switch o.Term.Kind {
				case TGoto:
					if o.Term.Target == b.Term.Target {
						preds++
					}
				case TIf:
					if o.Term.Then == b.Term.Target {
						preds++
					}
					if o.Term.Else == b.Term.Target {
						preds++
					}
				case TCall:
					if o.Term.Cont == b.Term.Target {
						preds++
					}
				}
			}
			entry := false
			for _, m := range p.MethodList {
				if m.Entry == b.Term.Target {
					entry = true
				}
			}
			if preds <= 1 && !entry {
				t.Errorf("block %d: same-loc goto to single-pred non-entry b%d survived fusion",
					b.ID, b.Term.Target)
			}
		}
	}
}

func TestFuseLiveness(t *testing.T) {
	p := compileSplit(t)
	Fuse(p)
	for _, b := range p.Blocks {
		if b.LiveIn == nil {
			t.Fatalf("block %d: liveness not computed", b.ID)
		}
	}
	// step(int x) { return x + 1; } — live-in at entry is exactly the
	// parameter slot 1 (`this` is never read).
	step := p.Method("P.step")
	li := p.Blocks[step.Entry]
	for s := 0; s < step.NSlots; s++ {
		want := s == 1
		if li.LiveAt(s) != want {
			t.Errorf("P.step entry: LiveAt(%d) = %v, want %v", s, li.LiveAt(s), want)
		}
	}
	// work's entry must see its parameter n but no temps beyond the
	// declared locals.
	work := p.Method("P.work")
	we := p.Blocks[work.Entry]
	if !we.LiveAt(1) {
		t.Error("P.work entry: parameter slot 1 not live")
	}
}

func TestFuseSQLTableAndMethodIdx(t *testing.T) {
	p := compileAllApp(t, `
class Q {
    entry int go(int k) {
        table t = db.query("SELECT v FROM kv WHERE k = ?", k);
        db.update("UPDATE kv SET v = v + 1 WHERE k = ?", k);
        table u = db.query("SELECT v FROM kv WHERE k = ?", k);
        return t.rows() + u.rows();
    }
}
`)
	if len(p.SQLTable) != 2 {
		t.Fatalf("SQLTable has %d entries, want 2 (duplicate query must intern): %q", len(p.SQLTable), p.SQLTable)
	}
	seen := map[int32]string{}
	for _, b := range p.Blocks {
		for _, in := range b.Code {
			if in.Op == OpDBQuery || in.Op == OpDBExec {
				if p.SQLTable[in.SQLID] != in.SQL {
					t.Errorf("SQLID %d resolves to %q, instr carries %q", in.SQLID, p.SQLTable[in.SQLID], in.SQL)
				}
				seen[in.SQLID] = in.SQL
			}
		}
	}
	if len(seen) != 2 {
		t.Errorf("distinct SQLIDs = %d, want 2", len(seen))
	}
	for i, m := range p.MethodList {
		if m.Idx != i {
			t.Errorf("method %s: Idx=%d, want %d", m.QName, m.Idx, i)
		}
	}
}

// A loop whose body always breaks leaves the loop head with a single
// reachable predecessor — the canonical goto-chain merge.
func TestFuseMergesGotoChain(t *testing.T) {
	p := compileAllApp(t, `
class M {
    entry int run(int n) {
        int s = 0;
        while (s < n) {
            s = s + 1;
            break;
        }
        return s;
    }
}
`)
	stats := Fuse(p)
	if stats.Merged == 0 {
		t.Fatalf("expected a goto-chain merge, got %v", stats)
	}
	checkProgram(t, p)
	// The entry block must now hold both the init and the loop
	// condition (the head was absorbed).
	run := p.Method("M.run")
	entry := p.Blocks[run.Entry]
	if entry.Term.Kind != TIf {
		t.Errorf("entry terminator = %v, want TIf (head merged in)", entry.Term.Kind)
	}
}

// TestFuseDeterministic: both peers run Compile+Fuse independently on
// the same PyxIL; the results must be bit-identical or the block IDs
// exchanged on the wire would diverge.
func TestFuseDeterministic(t *testing.T) {
	a := compileSplit(t)
	b := compileSplit(t)
	Fuse(a)
	Fuse(b)
	if a.Disassemble() != b.Disassemble() {
		t.Fatal("fusion is not deterministic across identical compiles")
	}
}

// TestEveryOpHasLiveness holds Fuse's register model to the opcode
// list: every opcode below NumOps has a stepLiveness case (the default
// panics) and a disassembly name.
func TestEveryOpHasLiveness(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("opcode %d: stepLiveness has no case: %v", op, r)
				}
			}()
			in := Instr{Op: op, A: 1, B: 2, C: 3, Args: []int{4, 5}}
			stepLiveness(make([]uint64, 1), &in)
		}()
		if _, ok := opNames[op]; !ok {
			t.Errorf("opcode %d has no disassembly name", op)
		}
	}
}
