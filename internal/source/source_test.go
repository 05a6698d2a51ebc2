package source

import (
	"strings"
	"testing"
	"testing/quick"
)

// runningExample is the paper's Fig. 2 Order class, transcribed to PyxJ.
const runningExample = `
class Order {
    int id;
    double[] realCosts;
    double totalCost;

    Order(int id) {
        this.id = id;
    }

    entry void placeOrder(int cid, double dct) {
        totalCost = 0;
        computeTotalCost(dct);
        updateAccount(cid, totalCost);
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
            i++;
            insertNewLineItem(id, realCost);
        }
    }

    double[] getCosts() {
        table t = db.query("SELECT cost FROM line_items WHERE order_id = ?", id);
        double[] costs = new double[t.rows()];
        for (int r = 0; r < t.rows(); r++) {
            costs[r] = t.getDouble(r, 0);
        }
        return costs;
    }

    void insertNewLineItem(int oid, double cost) {
        db.update("INSERT INTO new_line_items VALUES (?, ?)", oid, cost);
    }

    void updateAccount(int cid, double total) {
        db.update("UPDATE accounts SET balance = balance - ? WHERE cid = ?", total, cid);
    }
}
`

func TestRunningExampleLoads(t *testing.T) {
	p, err := Load(runningExample)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	order := p.Class("Order")
	if order == nil {
		t.Fatal("class Order not found")
	}
	if got := len(order.Fields); got != 3 {
		t.Fatalf("fields = %d, want 3", got)
	}
	if got := len(order.Methods); got != 6 {
		t.Fatalf("methods = %d, want 6", got)
	}
	if !p.Method("Order", "placeOrder").Entry {
		t.Error("placeOrder should be an entry method")
	}
	if !order.MethodByName("Order").IsCtor {
		t.Error("Order() should be a constructor")
	}
	entries := p.EntryMethods()
	if len(entries) != 1 || entries[0].Name != "placeOrder" {
		t.Errorf("EntryMethods = %v", entries)
	}
}

func TestNodeIDsAreDenseAndIndexed(t *testing.T) {
	p := MustLoad(runningExample)
	seen := map[NodeID]bool{}
	for id := range p.Stmts {
		if seen[id] {
			t.Fatalf("duplicate stmt id %d", id)
		}
		seen[id] = true
		if id < 1 || id > p.MaxNode {
			t.Fatalf("stmt id %d out of range 1..%d", id, p.MaxNode)
		}
	}
	for id := range p.Fields {
		if seen[id] {
			t.Fatalf("field id %d collides with a statement", id)
		}
		seen[id] = true
	}
	for id := range p.MethodEntries {
		if seen[id] {
			t.Fatalf("method entry id %d collides", id)
		}
		seen[id] = true
	}
}

func TestPrintRoundTrip(t *testing.T) {
	p := MustLoad(runningExample)
	out := Print(p)
	p2, err := Load(out)
	if err != nil {
		t.Fatalf("re-parse of printed source failed: %v\n%s", err, out)
	}
	out2 := Print(p2)
	if out != out2 {
		t.Errorf("print is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}
}

func TestDesugarForLoop(t *testing.T) {
	p := MustLoad(`class C { int f() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; } }`)
	m := p.Method("C", "f")
	// Desugared: decl s, decl i, while, return.
	if got := len(m.Body.Stmts); got != 4 {
		t.Fatalf("desugared stmt count = %d, want 4", got)
	}
	if _, ok := m.Body.Stmts[2].(*WhileStmt); !ok {
		t.Fatalf("stmt 2 is %T, want *WhileStmt", m.Body.Stmts[2])
	}
}

func TestCheckerErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undefined-var", `class C { int f() { return x; } }`, "undefined variable x"},
		{"bad-cond", `class C { void f() { if (1) { } } }`, "must be bool"},
		{"void-field", `class C { void v; }`, "cannot be void"},
		{"type-mismatch", `class C { void f() { int x = "s"; } }`, "cannot use string as int"},
		{"unknown-class", `class C { D d; }`, "unknown class D"},
		{"break-outside", `class C { void f() { break; } }`, "break outside loop"},
		{"dup-field", `class C { int x; int x; }`, "duplicate field"},
		{"dup-method", `class C { void f() { } void f() { } }`, "duplicate method"},
		{"bad-entry-param", `class C { entry void f(int[] a) { } }`, "must be scalar"},
		{"ctor-entry", `class C { entry C() { } }`, "cannot be an entry point"},
		{"call-ctor", `class C { C() {} void f() { C(); } }`, "cannot be called directly"},
		{"arity", `class C { void g(int x) {} void f() { g(); } }`, "want 1 arguments"},
		{"string-mod", `class C { void f() { int x = "a" % 2; } }`, "requires int operands"},
		{"non-literal-sql", `class C { void f(string s) { db.update(s); } }`, "string literal"},
		{"reserved-name", `class C { void f() { int db = 1; } }`, "reserved name"},
		{"bad-index", `class C { void f(int[] a) { int x = a["k"]; } }`, "index must be int"},
		{"field-init", `class C { int x = 3; }`, "field initializers are not supported"},
		{"assign-to-call", `class C { int g() { return 1; } void f() { g() = 2; } }`, "invalid assignment target"},
		// A table is call-scoped: the errors carry the declaration's position.
		{"table-field", "class C {\n  table t;\n}", "2:3: field C.t cannot be a table"},
		{"table-array-field", "class C {\n  table[] ts;\n}", "2:3: table cannot be an array element type"},
		{"table-array-local", "class C { void f() {\n table[][] ts; } }", "2:2: table cannot be an array element type"},
		{"table-array-param", "class C { void f(table[] ts) { } }", "1:26: table cannot be an array element type"},
		{"table-array-return", "class C { table[] f() { return null; } }", "table cannot be an array element type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* open", `"bad \q esc"`, "@"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q): expected error", src)
		}
	}
}

func TestLexAllTokens(t *testing.T) {
	toks, err := LexAll(`a += 1; b ++ <= >= == != && || /*c*/ "x\n" 1.5 2e3`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TIdent, TPlusEq, TInt, TSemi, TIdent, TPlusPlus, TLe, TGe, TEq, TNe, TAndAnd, TOrOr, TString, TFloat, TFloat, TEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("tok[%d] = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

// Property: any program we can print re-parses to an identical print.
// Exercised over a family of generated arithmetic methods.
func TestPrintParseProperty(t *testing.T) {
	f := func(a, b int8, useWhile bool) bool {
		src := genProgram(int64(a), int64(b), useWhile)
		p, err := Load(src)
		if err != nil {
			return false
		}
		out := Print(p)
		p2, err := Load(out)
		if err != nil {
			return false
		}
		return Print(p2) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func genProgram(a, b int64, useWhile bool) string {
	var sb strings.Builder
	sb.WriteString("class G { int run(int n) { int acc = 0;\n")
	if useWhile {
		sb.WriteString("int i = 0; while (i < n) { acc += i; i++; }\n")
	} else {
		sb.WriteString("for (int i = 0; i < n; i++) { acc += i; }\n")
	}
	if a%2 == 0 {
		sb.WriteString("if (acc > 10) { acc = acc - 1; } else { acc = acc + 1; }\n")
	}
	_ = b
	sb.WriteString("return acc; } }")
	return sb.String()
}

func TestTypeSystem(t *testing.T) {
	it, dt := IntT(), DoubleT()
	if !dt.AssignableFrom(it) {
		t.Error("double should accept int")
	}
	if it.AssignableFrom(dt) {
		t.Error("int should not accept double")
	}
	at := ArrayT(IntT())
	if !at.AssignableFrom(NullT()) {
		t.Error("array should accept null")
	}
	if at.String() != "int[]" {
		t.Errorf("array type string = %s", at)
	}
	if !ArrayT(IntT()).Equal(ArrayT(IntT())) {
		t.Error("equal array types should compare equal")
	}
	if ArrayT(IntT()).Equal(ArrayT(DoubleT())) {
		t.Error("different array types should not compare equal")
	}
}
