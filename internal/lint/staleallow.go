package lint

import (
	"fmt"
	"go/ast"
)

// StaleAllow is the meta-analyzer: it audits the suppression machinery
// itself. Every exemption in this package is a standing IOU — a
// //pyxlint:allow directive or an allowlist entry that says "this
// finding is safe, here is why". When the code it excused changes, the
// IOU goes stale and silently widens the blind spot: a directive over
// a line that no longer triggers anything would also swallow a future,
// genuine finding on that line, and an allowlist entry for a function
// that no longer inverts anything would excuse a brand-new inversion
// added there tomorrow. StaleAllow flags both:
//
//  1. A //pyxlint:allow directive is stale when re-running the named
//     analyzer WITHOUT suppression produces no diagnostic on the
//     directive's line or the line below it (the two lines the
//     directive covers). Directives naming analyzers that do not
//     exist are flagged too — usually a typo that never suppressed
//     anything.
//
//  2. A LatchOrderAllow entry is stale when the named function no
//     longer exists, or exists but the exemption-disabled scan finds
//     no violation inside it to exempt.
//
// The allowlist audit binds to the packages latchHierarchies names and
// arms only when at least one entry matches a live function (the same
// guard latchorder's LatchAudit staleness rule uses), so fixture
// packages that merely reuse the package names stay quiet.
var StaleAllow = &Analyzer{
	Name: "staleallow",
	Doc: "flag //pyxlint:allow directives and LatchOrderAllow entries " +
		"that no longer suppress any finding",
}

// runStaleAllow re-runs the whole roster, which includes StaleAllow
// itself; binding Run in init breaks the initialization cycle.
func init() { StaleAllow.Run = runStaleAllow }

func runStaleAllow(pass *Pass) error {
	// Re-run every other analyzer RAW (runAnalyzers applies directive
	// suppression only after Run returns, so a fresh Run sees the
	// pre-suppression findings) and index them by file:line.
	raw := map[string]map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == StaleAllow.Name {
			continue
		}
		var diags []Diagnostic
		p := &Pass{
			Analyzer: a, Fset: pass.Fset, Files: pass.Files,
			Pkg: pass.Pkg, Info: pass.Info, diags: &diags,
		}
		if err := a.Run(p); err != nil {
			return fmt.Errorf("re-running %s: %w", a.Name, err)
		}
		for _, d := range diags {
			if raw[a.Name] == nil {
				raw[a.Name] = map[string]bool{}
			}
			raw[a.Name][fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] = true
		}
	}

	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				name := m[1]
				if name == StaleAllow.Name {
					// A directive cannot excuse the staleness audit itself:
					// deleting the stale exemption is always the fix.
					continue
				}
				if Lookup(name) == nil {
					pass.Reportf(c.Pos(), "//pyxlint:allow names unknown analyzer %q — it suppresses nothing", name)
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				here := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				below := fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)
				if !raw[name][here] && !raw[name][below] {
					pass.Reportf(c.Pos(),
						"stale //pyxlint:allow: %s reports nothing on this line or the next — delete the directive",
						name)
				}
			}
		}
	}

	// Allowlist staleness: only meaningful in the package whose
	// hierarchy the order scan binds to.
	if pass.Pkg == nil {
		return nil
	}
	ranks := latchHierarchies[pass.Pkg.Name()]
	if ranks == nil {
		return nil
	}
	live := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				live[funcKey(fd)] = fd
			}
		}
	}
	anyLive := false
	for fn := range LatchOrderAllow {
		if live[fn] != nil {
			anyLive = true
			break
		}
	}
	if !anyLive {
		return nil // not the package the allowlist describes
	}
	for _, fn := range sortedKeys(LatchOrderAllow) {
		fd := live[fn]
		if fd == nil {
			pass.Reportf(pass.Files[0].Pos(),
				"LatchOrderAllow entry %q names a function that no longer exists", fn)
			continue
		}
		if len(latchOrderViolations(fd, ranks)) == 0 {
			pass.Reportf(fd.Pos(),
				"LatchOrderAllow entry %q is stale: the exemption-disabled scan finds no violation to exempt — delete the entry",
				fn)
		}
	}
	return nil
}
