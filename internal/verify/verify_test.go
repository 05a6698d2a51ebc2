package verify

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pyxis/internal/analysis"
	"pyxis/internal/compile"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/pyxil"
	"pyxis/internal/source"
	"pyxis/internal/val"
)

var update = flag.Bool("update", false, "rewrite the golden .diag files under testdata/")

// calcTestSrc mirrors the runtime suite's calculator: branches, array
// state, a print, and three entry points.
const calcTestSrc = `
class Calc {
    int acc;
    int[] history;

    Calc() {
        acc = 0;
        history = new int[8];
    }

    entry int apply(int x, bool double_) {
        if (double_) {
            acc += x * 2;
        } else {
            acc += x;
        }
        history[x % 8] = acc;
        return acc;
    }

    entry int histAt(int i) {
        return history[i % 8];
    }

    entry string describe() {
        string s = "acc=" + sys.str(acc);
        sys.print(s);
        return s;
    }
}
`

// loopTestSrc mirrors the differential suite's looping program: nested
// loops and an intra-class call, so fused programs carry caller frames.
const loopTestSrc = `
class L {
    int total;
    int[] buf;

    L() {
        total = 0;
        buf = new int[16];
    }

    int step(int x) {
        int y = x;
        while (y > 0) {
            total = total + y % 3;
            y = y - 1;
        }
        return total;
    }

    entry int run(int n) {
        int i = 0;
        while (i < n) {
            buf[i % 16] = step(i);
            i = i + 1;
        }
        return total;
    }

    entry int peek(int i) {
        return buf[i % 16];
    }

    entry string show() {
        string s = "t=" + sys.str(total);
        sys.print(s);
        return s;
    }
}
`

// kvTestSrc exercises the SQL path: two distinct statements populate
// Program.SQLTable, which the structural SQLID checks are about.
const kvTestSrc = `
class Kv {
    int cached;

    Kv() {
        cached = 0;
    }

    entry int get(int k) {
        table t = db.query("SELECT v FROM kv WHERE k = ?", k);
        if (t.rows() > 0) {
            cached = t.getInt(0, 0);
        }
        return cached;
    }

    entry int put(int k, int v) {
        db.update("UPDATE kv SET v = ? WHERE k = ?", v, k);
        return v;
    }
}
`

// compileSrc compiles src under the given placement mutator with the
// registered verifier ON, so every fixture starts from a program the
// verifier accepted; mutation tests then break it by hand.
func compileSrc(t *testing.T, src string, assign func(*pdg.Graph, pdg.Placement), fuse bool) *compile.Program {
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
	if assign != nil {
		assign(g, place)
	}
	px := pyxil.Generate(res, g, place, pyxil.Options{})
	compiled, err := compile.Compile(px)
	if err != nil {
		t.Fatalf("compile rejected a generator placement: %v", err)
	}
	if fuse {
		compile.Fuse(compiled)
	}
	return compiled
}

// allDB forces every statement and method entry onto the database
// server, making method entries transfer resume points.
func allDB(g *pdg.Graph, place pdg.Placement) {
	for id, n := range g.Nodes {
		if n.Pin != pdg.Unpinned {
			place[id] = n.Pin
			continue
		}
		place[id] = pdg.DB
	}
}

func TestVerifyCleanPrograms(t *testing.T) {
	srcs := map[string]string{"calc": calcTestSrc, "loop": loopTestSrc, "kv": kvTestSrc}
	for name, src := range srcs {
		for _, fuse := range []bool{false, true} {
			p := compileSrc(t, src, nil, fuse)
			if err := Program(p); err != nil {
				t.Errorf("%s (fuse=%v, all-APP): %v", name, fuse, err)
			}
		}
	}
	for name, src := range map[string]string{"calc": calcTestSrc, "loop": loopTestSrc} {
		for seed := int64(1); seed <= 8; seed++ {
			for _, fuse := range []bool{false, true} {
				p := compileSrc(t, src, pdg.RandomAssign(seed), fuse)
				if err := Program(p); err != nil {
					t.Errorf("%s seed=%d fuse=%v: %v", name, seed, fuse, err)
				}
			}
		}
	}
}

// clearLowestLiveBit clears the lowest set bit of b.LiveIn, returning
// the slot it dropped.
func clearLowestLiveBit(t *testing.T, b *compile.Block) int {
	t.Helper()
	return clearLowestBit(t, b, b.LiveIn, "LiveIn")
}

// clearLowestBit clears the lowest set bit of one of b's slot masks,
// returning the slot it dropped.
func clearLowestBit(t *testing.T, b *compile.Block, mask []uint64, name string) int {
	t.Helper()
	for w := range mask {
		if mask[w] == 0 {
			continue
		}
		for bit := 0; bit < 64; bit++ {
			if mask[w]&(1<<uint(bit)) != 0 {
				mask[w] &^= 1 << uint(bit)
				return w*64 + bit
			}
		}
	}
	t.Fatalf("b%d has an empty %s mask; nothing to drop", b.ID, name)
	return -1
}

// TestVerifyRejectsMutilatedPrograms is the regression corpus: one
// hand-broken program (or two) per check class, each asserting the exact
// diagnostic text against a golden file under testdata/.
func TestVerifyRejectsMutilatedPrograms(t *testing.T) {
	cases := []struct {
		name      string // also the testdata/<name>.diag golden
		src       string
		assign    func(*pdg.Graph, pdg.Placement)
		fuse      bool
		wantCheck string
		mutate    func(t *testing.T, p *compile.Program)
	}{
		{
			// structural: a goto into the void. The runtime fetches
			// blocks by index, so this would panic mid-request.
			name: "structural-dangling-goto", src: calcTestSrc, wantCheck: CheckStructural,
			mutate: func(t *testing.T, p *compile.Program) {
				for _, b := range p.Blocks {
					if b.Term.Kind == compile.TGoto {
						b.Term.Target = 9999
						return
					}
				}
				t.Fatal("no TGoto block to mutilate")
			},
		},
		{
			// structural: MethodInfo.Idx out of step with MethodList.
			// Transfer frames name methods by index, so a peer decoding
			// this program would resume the wrong method.
			name: "structural-method-idx", src: calcTestSrc, wantCheck: CheckStructural,
			mutate: func(t *testing.T, p *compile.Program) {
				p.MethodList[1].Idx = 5
			},
		},
		{
			// structural: an SQLID pointing at the wrong SQLTable entry.
			// The prepared wire ships only the ID, so the remote side
			// would execute a different statement than the one compiled.
			name: "structural-sql-mismatch", src: kvTestSrc, wantCheck: CheckStructural,
			mutate: func(t *testing.T, p *compile.Program) {
				if len(p.SQLTable) < 2 {
					t.Fatalf("kv program has %d SQL statements; need 2", len(p.SQLTable))
				}
				for _, b := range p.Blocks {
					for i := range b.Code {
						in := &b.Code[i]
						if in.Op == compile.OpDBQuery || in.Op == compile.OpDBExec {
							in.SQLID = (in.SQLID + 1) % int32(len(p.SQLTable))
							return
						}
					}
				}
				t.Fatal("no SQL instruction to mutilate")
			},
		},
		{
			// defuse: a read of a frame slot no path has written. The
			// transfer decoder leaves a new frame's unshipped slots zero,
			// so this is exactly the program shape that turns a dropped
			// mask bit into wrong answers.
			name: "defuse-read-before-write", src: calcTestSrc, wantCheck: CheckDefUse,
			mutate: func(t *testing.T, p *compile.Program) {
				m := p.Method("Calc.apply")
				if m.NSlots <= len(m.Params)+1 {
					t.Fatalf("Calc.apply frame too small (%d slots) to have an undefined temp", m.NSlots)
				}
				entry := p.Blocks[m.Entry]
				read := compile.Instr{Op: compile.OpMove, A: 0, B: m.NSlots - 1}
				entry.Code = append([]compile.Instr{read}, entry.Code...)
			},
		},
		{
			// defuse: a concat operand no path has written — the
			// instruction's own destination, which it writes only after
			// reading its operands. A model of the instruction set that
			// missed concat's reads would let this through.
			name: "defuse-concat-undefined-operand", src: calcTestSrc, wantCheck: CheckDefUse,
			mutate: func(t *testing.T, p *compile.Program) {
				for _, b := range p.Blocks {
					for i := range b.Code {
						if in := &b.Code[i]; in.Op == compile.OpConcat && len(in.Args) > 1 {
							in.Args[1] = in.A
							return
						}
					}
				}
				t.Fatal("no concat instruction to mutilate")
			},
		},
		{
			// liveness: a live slot scrubbed from a fused block's mask.
			// This is the silent-corruption bug class the verifier
			// exists for — Fuse computing a too-small bitset.
			name: "liveness-dropped-slot", src: loopTestSrc, fuse: true, wantCheck: CheckLiveness,
			mutate: func(t *testing.T, p *compile.Program) {
				m := p.Method("L.step")
				b := p.Blocks[m.Entry]
				if s := clearLowestLiveBit(t, b); s < 0 {
					t.Fatal("no live bit cleared")
				}
			},
		},
		{
			// liveness: a slot the block reads dropped from its NeedIn.
			// A transfer resuming here would not ship the slot, and the
			// resuming side would read its own stale copy.
			name: "liveness-dropped-needin-bit", src: loopTestSrc, fuse: true, wantCheck: CheckLiveness,
			mutate: func(t *testing.T, p *compile.Program) {
				b := p.Blocks[p.Method("L.step").Entry]
				clearLowestBit(t, b, b.NeedIn, "NeedIn")
			},
		},
		{
			// liveness: a write dropped from a block's Defs. The runtime
			// would never mark the slot dirty, so the write would never
			// reach the other side.
			name: "liveness-dropped-defs-bit", src: loopTestSrc, fuse: true, wantCheck: CheckLiveness,
			mutate: func(t *testing.T, p *compile.Program) {
				b := p.Blocks[p.Method("L.step").Entry]
				clearLowestBit(t, b, b.Defs, "Defs")
			},
		},
		{
			// transfer: the same dropped-bit corruption on a block that
			// is a transfer resume point (a DB-placed method entry), so
			// the wire itself would ship the lying mask. The liveness
			// check co-fires — masks are checked everywhere — but the
			// transfer check names the resume semantics.
			name: "transfer-dropped-mask-bit", src: calcTestSrc, assign: allDB, fuse: true, wantCheck: CheckTransfer,
			mutate: func(t *testing.T, p *compile.Program) {
				m := p.Method("Calc.apply")
				if p.Blocks[m.Entry].Loc != pdg.DB {
					t.Fatalf("Calc.apply entry not on DB under allDB placement")
				}
				clearLowestLiveBit(t, p.Blocks[m.Entry])
			},
		},
		{
			// placement: console output moved onto the database server.
			// pdg.Build pins prints APP; a DB-placed print means the
			// placement was corrupted after solving.
			name: "placement-print-on-db", src: calcTestSrc, wantCheck: CheckPlacement,
			mutate: func(t *testing.T, p *compile.Program) {
				for _, b := range p.Blocks {
					for i := range b.Code {
						if b.Code[i].Op == compile.OpPrint {
							b.Loc = pdg.DB
							return
						}
					}
				}
				t.Fatal("no print instruction to mutilate")
			},
		},
		{
			// scope: a field retyped to hold result tables. The runtime
			// frees a table once no live frame slot names it, so a
			// reference parked in an object would dangle by the next call.
			name: "scope-table-field", src: calcTestSrc, wantCheck: CheckScope,
			mutate: func(t *testing.T, p *compile.Program) {
				for _, f := range p.Classes["Calc"].Fields {
					if f.Name == "history" {
						f.Type = source.ArrayT(source.TableT())
						return
					}
				}
				t.Fatal("no history field to mutilate")
			},
		},
		{
			// scope: the same hole through an array allocated with a
			// table-kind element zero.
			name: "scope-table-array", src: calcTestSrc, wantCheck: CheckScope,
			mutate: func(t *testing.T, p *compile.Program) {
				for _, b := range p.Blocks {
					for i := range b.Code {
						if b.Code[i].Op == compile.OpNewArr {
							b.Code[i].Lit = val.TableV(0)
							return
						}
					}
				}
				t.Fatal("no newarr instruction to mutilate")
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compileSrc(t, tc.src, tc.assign, tc.fuse)
			tc.mutate(t, p)

			ds := Diagnostics(p)
			if len(ds) == 0 {
				t.Fatal("verifier accepted the mutilated program")
			}
			found := false
			var lines []string
			for _, d := range ds {
				if d.Check == tc.wantCheck {
					found = true
				}
				lines = append(lines, d.String())
			}
			if !found {
				t.Errorf("no %s diagnostic; got:\n  %s", tc.wantCheck, strings.Join(lines, "\n  "))
			}
			got := strings.Join(lines, "\n") + "\n"

			golden := filepath.Join("testdata", tc.name+".diag")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed:\n-- got --\n%s-- want --\n%s", got, want)
			}

			// The program must also fail the error-returning entry point
			// (what compile.Compile calls), not just Diagnostics.
			if err := Program(p); err == nil {
				t.Error("Program() returned nil for a mutilated program")
			}
		})
	}
}

// TestEveryOpHasEffect holds the verifier's register model to the
// opcode list: every opcode below compile.NumOps has an opEffect case
// (the default panics) and a name for diagnostics, and the structural
// check rejects the first opcode past the list.
func TestEveryOpHasEffect(t *testing.T) {
	for op := compile.Op(0); op < compile.NumOps; op++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("opcode %d: opEffect has no case: %v", op, r)
				}
			}()
			opEffect(&compile.Instr{Op: op, A: 1, B: 2, C: 3, Args: []int{4, 5}})
		}()
		if _, ok := opNames[op]; !ok {
			t.Errorf("opcode %d has no diagnostic name", op)
		}
	}
	p := compileSrc(t, calcTestSrc, nil, false)
	b := p.Blocks[p.Method("Calc.describe").Entry]
	b.Code = append(b.Code, compile.Instr{Op: compile.NumOps})
	ds := Diagnostics(p)
	if len(ds) != 1 || ds[0].Check != CheckStructural || !strings.Contains(ds[0].Msg, "unknown opcode") {
		t.Errorf("opcode %d past the list: got %v, want one structural unknown-opcode finding", compile.NumOps, ds)
	}
}

// TestCompileVerifiesByDefault checks the registration hook: in any
// binary that links this package, compile.Compile runs the verifier
// and surfaces its findings as a compile error.
func TestCompileVerifiesByDefault(t *testing.T) {
	prog, err := source.Load(calcTestSrc)
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
	if _, err := compile.Compile(px); err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}
	if _, err := compile.Compile(px, compile.NoVerify()); err != nil {
		t.Fatalf("NoVerify compile failed: %v", err)
	}
}

// TestDiagString pins the rendering the CLI and CI logs show.
func TestDiagString(t *testing.T) {
	d := Diag{Check: CheckLiveness, Method: "L.step", Block: 7, Msg: "dropped slot 3"}
	if got, want := d.String(), "liveness: L.step: b7: dropped slot 3"; got != want {
		t.Errorf("Diag.String() = %q, want %q", got, want)
	}
	d = Diag{Check: CheckStructural, Block: compile.NoBlock, Msg: "tables disagree"}
	if got, want := d.String(), "structural: tables disagree"; got != want {
		t.Errorf("Diag.String() = %q, want %q", got, want)
	}
}

func ExampleProgram() {
	prog, _ := source.Load(kvTestSrc)
	res := analysis.Run(prog)
	g := pdg.Build(res, profile.New(), pdg.Options{})
	place := pdg.Placement{}
	for id := range g.Nodes {
		place[id] = pdg.App
	}
	place[g.DBCodeID] = pdg.DB
	px := pyxil.Generate(res, g, place, pyxil.Options{})
	p, _ := compile.Compile(px)
	fmt.Println(Program(p))
	// Output: <nil>
}
