package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestDifferentialRandomPlacements is the observational-equivalence
// property test: a partitioned program is the original program. For
// each source program and a sweep of seeded random statement/field
// placements, the same call schedule runs through
//
//   - the reference: the source program under internal/interp, which
//     shares no code with the compiler, the block executor, the
//     transfer codec or heap sync, and
//   - the compiled program on a deployment, unfused and Fuse()d,
//
// and every observable — return values, printed output, the database —
// must match the reference exactly, while the fused run's
// control-transfer count must never exceed the unfused run's (fusion
// only merges or threads edges, so it can only remove boundary
// crossings). The unfused program ships every slot and the fused one
// only the live ones, so a wrong liveness mask shows as the fused trace
// leaving the reference.

const diffLoopSrc = `
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

// diffConcatSrc builds strings every way the compiler folds into one
// concat instruction: a right-nested `+`, a call in the middle of a
// chain (which splits the block mid-expression, with a field read on
// either side of the call that bumps it), `+=` of a chain onto a local,
// a field and an array element, and sys.str of a negative int, an
// integer-valued double, a fractional double and a bool, alone and in
// chains. Random placements put the statements that compute operands
// on either side of the one that concatenates them.
const diffConcatSrc = `
class S {
    string journal;
    string[] lines;
    int n;
    double price;

    S() {
        journal = "";
        lines = new string[4];
        n = 0;
        price = 2.5;
    }

    string tag(int k) {
        n = n + 1;
        return "<" + sys.str(k) + ">";
    }

    entry string build(int k, bool flag) {
        string a = "a" + sys.str(k);
        string b = sys.str(-k - 1);
        double whole = price * 2.0;
        string c = sys.str(whole) + "|" + sys.str(price + 0.25 * k);
        string s = a + (b + c);
        string t = sys.str(flag);
        s += t + sys.str(k > 3);
        journal += s + ";" + sys.str(n);
        lines[k % 4] += tag(k) + ",";
        string mid = sys.str(n) + "[" + tag(k + 1) + "]" + sys.str(n);
        sys.print(mid);
        return sys.str(s + mid);
    }

    entry string show(int i) {
        string line = lines[i % 4];
        return sys.str(line) + "/" + journal;
    }
}
`

// diffCall is one step of a deterministic call schedule.
type diffCall struct {
	method string
	args   []val.Value
}

// diffSchedule derives a seeded schedule of entry calls for a source.
func diffSchedule(class string, entries []string, rng *rand.Rand, n int) []diffCall {
	var calls []diffCall
	for i := 0; i < n; i++ {
		m := entries[rng.Intn(len(entries))]
		var args []val.Value
		switch class + "." + m {
		case "Calc.apply":
			args = []val.Value{val.IntV(int64(rng.Intn(20))), val.BoolV(rng.Intn(2) == 0)}
		case "S.build":
			args = []val.Value{val.IntV(int64(rng.Intn(8))), val.BoolV(rng.Intn(2) == 0)}
		case "Calc.histAt", "L.peek", "S.show":
			args = []val.Value{val.IntV(int64(rng.Intn(16)))}
		case "L.run":
			args = []val.Value{val.IntV(int64(1 + rng.Intn(6)))}
		}
		calls = append(calls, diffCall{method: class + "." + m, args: args})
	}
	return calls
}

// traceCall appends one call's outcome to a trace. The schedules raise
// no errors, and an error's text is not part of the contract (the
// interpreter names a source position, the runtime a block).
func traceCall(tr *bytes.Buffer, i int, method string, v val.Value, err error) {
	if err != nil {
		fmt.Fprintf(tr, "%d %s -> err\n", i, method)
		return
	}
	fmt.Fprintf(tr, "%d %s -> %s\n", i, method, v.String())
}

// finishTrace closes a trace with what the run printed and what it
// left in the database.
func finishTrace(tr *bytes.Buffer, printed []byte, db *sqldb.DB) string {
	tr.WriteString("--- printed ---\n")
	tr.Write(printed)
	fmt.Fprintf(tr, "--- database ---\n%v\n", db.Snapshot())
	return tr.String()
}

// runReference drives calls through the interpreter on the source
// program and returns the observable trace.
func runReference(t *testing.T, src, class string, calls []diffCall) string {
	t.Helper()
	prog, err := source.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.Open()
	ip := interp.New(prog, dbapi.NewLocal(db))
	var out bytes.Buffer
	ip.Out = &out
	obj, err := ip.NewObject(class)
	if err != nil {
		t.Fatalf("reference: NewObject(%s): %v", class, err)
	}
	var tr bytes.Buffer
	for i, c := range calls {
		_, name, _ := strings.Cut(c.method, ".")
		v, err := ip.CallEntry(prog.Method(class, name), obj, c.args...)
		traceCall(&tr, i, c.method, v, err)
	}
	return finishTrace(&tr, out.Bytes(), db)
}

// runSchedule drives calls against a fresh deployment of compiled and
// returns the observable trace plus the control-transfer count.
func runSchedule(t *testing.T, compiled *compile.Program, class string, calls []diffCall) (trace string, transfers int64) {
	t.Helper()
	var out bytes.Buffer
	dep := NewDeployment(compiled, sqldb.Open(), Options{Out: &out})
	oid, err := dep.Client.NewObject(class)
	if err != nil {
		t.Fatalf("NewObject(%s): %v", class, err)
	}
	var tr bytes.Buffer
	for i, c := range calls {
		v, err := dep.Client.CallEntry(c.method, oid, c.args...)
		traceCall(&tr, i, c.method, v, err)
	}
	return finishTrace(&tr, out.Bytes(), dep.DB), dep.App.Metrics.Snapshot().Transfers
}

func TestDifferentialRandomPlacements(t *testing.T) {
	programs := []struct {
		name, src, class string
		entries          []string
	}{
		{"calc", calcSrc, "Calc", []string{"apply", "histAt", "describe"}},
		{"loop", diffLoopSrc, "L", []string{"run", "peek", "show"}},
		{"concat", diffConcatSrc, "S", []string{"build", "build", "show"}},
	}
	for _, p := range programs {
		for seed := int64(1); seed <= 64; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", p.name, seed), func(t *testing.T) {
				// Compile the same random placement twice so Fuse (which
				// rewrites in place) gets its own copy.
				unfused := compileWith(t, p.src, pdg.RandomAssign(seed))
				fused := compileWith(t, p.src, pdg.RandomAssign(seed))
				stats := compile.Fuse(fused)
				if len(fused.Blocks) > len(unfused.Blocks) {
					t.Fatalf("fusion grew the program: %d -> %d blocks", len(unfused.Blocks), len(fused.Blocks))
				}

				rng := rand.New(rand.NewSource(seed * 7919))
				calls := diffSchedule(p.class, p.entries, rng, 24)

				want := runReference(t, p.src, p.class, calls)
				if strings.Contains(want, "-> err") {
					t.Fatalf("the schedule raises an error in the reference:\n%s", want)
				}
				unfusedTrace, unfusedTransfers := runSchedule(t, unfused, p.class, calls)
				fusedTrace, fusedTransfers := runSchedule(t, fused, p.class, calls)

				if unfusedTrace != want {
					t.Errorf("unfused program left the reference interpreter:\n-- interp --\n%s\n-- unfused --\n%s",
						want, unfusedTrace)
				}
				if fusedTrace != want {
					t.Errorf("fused program left the reference interpreter (fuse %s):\n-- interp --\n%s\n-- fused --\n%s",
						stats, want, fusedTrace)
				}
				if fusedTransfers > unfusedTransfers {
					t.Errorf("fusion increased transfers: %d -> %d", unfusedTransfers, fusedTransfers)
				}
			})
		}
	}
}
