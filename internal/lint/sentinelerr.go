package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// SentinelErr enforces the error-matching discipline the wrapped-error
// sentinels demand: ErrOverloaded, ErrPoolPoisoned, ErrCallDeadline,
// ErrUnprepared and friends all cross wrapping boundaries
// (fmt.Errorf("...: %w", err), the mux wire's error re-hydration), so
//
//   - comparing a sentinel with == or != (including switch cases)
//     silently stops matching the moment anyone wraps the error:
//     use errors.Is;
//   - formatting a sentinel into a new error with %v or %s severs the
//     chain errors.Is needs: wrap with %w.
//
// Sentinels are recognized semantically where type information
// reaches (package-level error variables, own-package always, every
// package under go vet -vettool), with a syntactic Err[A-Z]* /EOF
// name fallback for cross-package references in tolerant mode.
var SentinelErr = &Analyzer{
	Name: "sentinelerr",
	Doc: "typed error sentinels must be matched with errors.Is (never ==/!=/switch-case) " +
		"and wrapped with %w (never %v/%s)",
	Run: runSentinelErr,
}

func runSentinelErr(pass *Pass) error {
	sentinels := collectSentinels(pass)

	isSentinel := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[e]; obj != nil {
				return sentinels[obj] || isErrorVar(obj)
			}
			return false
		case *ast.SelectorExpr:
			if obj := pass.Info.Uses[e.Sel]; obj != nil {
				return isErrorVar(obj)
			}
			// Unresolved cross-package reference: fall back to the
			// sentinel naming convention.
			if _, ok := e.X.(*ast.Ident); ok {
				return sentinelName(e.Sel.Name)
			}
			return false
		}
		return false
	}

	for _, f := range pass.Files {
		fmtName := ImportName(f, "fmt")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if isSentinel(side) {
						pass.Reportf(n.Pos(),
							"sentinel error compared with %s — wrapped errors will not match; use errors.Is",
							n.Op)
						break
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				for _, cl := range n.Body.List {
					cc, ok := cl.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if isSentinel(e) {
							pass.Reportf(e.Pos(),
								"sentinel error in switch case compares with == — wrapped errors will not match; use errors.Is")
						}
					}
				}
			case *ast.CallExpr:
				checkErrorfWrap(pass, n, fmtName, isSentinel)
			}
			return true
		})
	}
	return nil
}

// collectSentinels gathers this package's package-level error
// variables initialized from errors.New / fmt.Errorf.
func collectSentinels(pass *Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files {
		errorsName := ImportName(f, "errors")
		fmtName := ImportName(f, "fmt")
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					call, ok := vs.Values[i].(*ast.CallExpr)
					if !ok {
						continue
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						continue
					}
					ctor := x.Name == errorsName && sel.Sel.Name == "New" ||
						x.Name == fmtName && sel.Sel.Name == "Errorf"
					if !ctor {
						continue
					}
					if obj := pass.Info.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
	}
	return out
}

// isErrorVar reports whether obj is a package-level variable whose
// type is error or a concrete type implementing it (the solver's
// `var ErrTooLarge = errTooLarge{}` shape) — the resolved-type
// sentinel test.
func isErrorVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	t := v.Type()
	if t == nil {
		return false
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
	}
	return implementsError(t)
}

// implementsError reports whether t (or *t) has an Error() string
// method.
func implementsError(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if m.Name() != "Error" {
				continue
			}
			sig, ok := m.Type().(*types.Signature)
			if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				continue
			}
			if b, ok := sig.Results().At(0).Type().(*types.Basic); ok && b.Kind() == types.String {
				return true
			}
		}
	}
	return false
}

// sentinelName is the naming-convention fallback: ErrFoo / EOF.
func sentinelName(name string) bool {
	if name == "EOF" {
		return true
	}
	return strings.HasPrefix(name, "Err") && len(name) > 3 &&
		name[3] >= 'A' && name[3] <= 'Z'
}

// checkErrorfWrap flags fmt.Errorf calls that format a sentinel with
// a verb other than %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr, fmtName string, isSentinel func(ast.Expr) bool) {
	if fmtName == "" || len(call.Args) < 2 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	if x, ok := sel.X.(*ast.Ident); !ok || x.Name != fmtName {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break
		}
		if verb != 'w' && isSentinel(call.Args[argIdx]) {
			pass.Reportf(call.Args[argIdx].Pos(),
				"sentinel error formatted with %%%c — the error chain is severed for errors.Is; wrap with %%w", verb)
		}
	}
}

// formatVerbs extracts the verb letters of a format string in
// argument order. It gives up (ok=false) on explicit argument indexes
// and * width/precision, which change the arg mapping.
func formatVerbs(format string) ([]rune, bool) {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // literal %%
			}
			if c == '[' || c == '*' {
				return nil, false
			}
			if strings.ContainsRune("+-# 0.0123456789", rune(c)) {
				i++
				continue
			}
			verbs = append(verbs, rune(c))
			break
		}
	}
	return verbs, true
}
