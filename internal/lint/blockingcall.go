package lint

import (
	"go/ast"
	"go/token"
)

// BlockingCall forbids parking a goroutine while it holds a hierarchy
// latch. A goroutine that blocks on the network (wire RPCs like Call /
// CallEntry, dials, accepts), on a channel receive, on a default-less
// select, or on a wait/sleep while holding one of the latches in
// latchHierarchies keeps every contender of that latch parked for the
// full stall: one peer dropping off the network freezes every session
// that needs the latch.
//
// The scan is the same source-order approximation latchorder's rule 2
// uses: Lock/RLock on a hierarchy field pushes the latch, a matching
// Unlock/RUnlock pops it, and any blocking operation in between is a
// finding. Function literals are skipped (a closure runs on its own
// goroutine's schedule, and the latch set at its definition says
// nothing about the latch set at its call), and so are defer bodies
// (a deferred unlock must not count as an early release, and deferred
// blocking work runs after the function body — with the latch already
// released when the unlock defer was stacked later).
//
// A function that genuinely must hold a latch across a blocking call
// carries a //pyxlint:allow blockingcall directive with the story for
// why the stall is bounded; test files are exempt (they block
// deliberately, under the race jobs' watch).
var BlockingCall = &Analyzer{
	Name: "blockingcall",
	Doc: "forbid blocking operations (wire RPCs, channel receives, default-less selects, waits) " +
		"while holding a latch from the package's latch hierarchy",
	Run: runBlockingCall,
}

// blockingCallNames classifies callee method names that park the
// goroutine: the dbapi/runtime wire surface, raw net dials/accepts,
// and the sync/time parking calls.
var blockingCallNames = map[string]string{
	"Call":        "a wire RPC",
	"CallEntry":   "a wire RPC",
	"Dial":        "a network dial",
	"DialTimeout": "a network dial",
	"Accept":      "a network accept",
	"Wait":        "a wait",
	"Sleep":       "a sleep",
}

// blockingCallViolation is one finding of the scan.
type blockingCallViolation struct {
	pos   token.Pos
	what  string // "calls Call (a wire RPC)", "receives from a channel", ...
	latch string // the innermost hierarchy latch held
}

// blockingCallViolations scans one function body in source order,
// tracking the held-latch stack.
func blockingCallViolations(fd *ast.FuncDecl, ranks map[string]int) []blockingCallViolation {
	var out []blockingCallViolation

	// A default-less select is reported as a whole; its comm-clause
	// receive expressions must not ALSO be reported as channel
	// receives, so collect them first.
	commRecv := map[*ast.UnaryExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return true
		}
		ast.Inspect(cc.Comm, func(c ast.Node) bool {
			if ue, ok := c.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				commRecv[ue] = true
			}
			return true
		})
		return true
	})

	var held []string
	report := func(pos token.Pos, what string) {
		out = append(out, blockingCallViolation{pos: pos, what: what, latch: held[len(held)-1]})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if field, kind, ok := latchLockCall(x); ok && ranks[field] != 0 {
				if kind == latchAcquire {
					held = append(held, field)
				} else {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == field {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			name := ""
			switch fun := x.Fun.(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			}
			if class, ok := blockingCallNames[name]; ok {
				report(x.Fun.Pos(), "calls "+name+" ("+class+")")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && len(held) > 0 && !commRecv[x] {
				report(x.Pos(), "receives from a channel")
			}
		case *ast.SelectStmt:
			if len(held) == 0 {
				return true
			}
			hasDefault := false
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				report(x.Pos(), "blocks in a select with no default")
			}
		}
		return true
	})
	return out
}

func runBlockingCall(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	ranks := latchHierarchies[pass.Pkg.Name()]
	if ranks == nil {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := funcKey(fd)
			for _, viol := range blockingCallViolations(fd, ranks) {
				pass.Reportf(viol.pos,
					"%s %s while holding %s — a parked goroutine keeps every contender of %s parked too "+
						"(release the latch first, or carry the story in a //pyxlint:allow blockingcall directive)",
					fn, viol.what, viol.latch, viol.latch)
			}
		}
	}
	return nil
}
