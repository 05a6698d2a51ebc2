package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReleaseOnError is the CFG-based leak check for pooled and
// lock-holding resources — the machine version of PR 7's
// transfer-failure bug family, where `invoke` error exits leaked the
// APP-side transaction's row locks and v1 stack-decode errors leaked
// pooled frames.
//
// For every assignment `v := x.M(...)` where M is a configured
// acquire (session frames from the free-list, prepared 2PC
// transactions, armed fences, pooled request bodies), the analyzer walks the function's control-flow graph
// from the acquisition and demands that every reachable return
// statement either follows a point where v was released or handed
// off, or mentions v itself. "Handed off" is deliberately permissive
// — ownership-transfer is idiomatic, leak-by-omission is the bug:
//
//   - v passed (directly) as an argument to any call — including
//     append, the release functions themselves, and encoders that
//     assume ownership;
//   - a configured release/resolve method called on v;
//   - v returned, sent on a channel, stored via assignment, placed in
//     a composite literal, or address-taken;
//   - v captured by any defer in the function (deferred cleanup).
//
// What remains is exactly the bug shape: a return path on which the
// acquired value was never mentioned again. Functions using control
// flow the graph cannot model (goto) are skipped, and intentional
// leaks carry a //pyxlint:allow releaseonerror directive.
var ReleaseOnError = &Analyzer{
	Name: "releaseonerror",
	Doc: "acquired pooled/lock-holding resources (session frames, prepared 2PC txns) " +
		"must be released or handed off on every return path",
	Run: runReleaseOnError,
}

// acquireSpec names one resource-acquiring method and the methods
// that release its result.
type acquireSpec struct {
	method   string // acquire method name
	recv     string // receiver type name; enforced when type info resolves
	kind     string // human-readable resource name for diagnostics
	releases map[string]bool
}

// releaseAcquires is the configured resource set. Unexported acquire
// methods (newFrame) can only match inside their declaring package,
// where the tolerant loader resolves them fully; exported ones
// (Prepare2PC) also match cross-package by name when type information
// is unavailable.
var releaseAcquires = []acquireSpec{
	{
		method: "newFrame", recv: "Session", kind: "pooled frame",
		releases: map[string]bool{"freeFrame": true, "freeStack": true},
	},
	{
		method: "Prepare2PC", recv: "Session", kind: "prepared 2PC transaction",
		releases: map[string]bool{"Commit": true, "Abort": true, "Rollback": true},
	},
	{
		// A live-rebalancing write-fence blocks every writer (and
		// reader) of the moving warehouse range until its token is
		// released or its TTL lapses; a leaked token means the range
		// stays dark for the full TTL.
		method: "ArmFence", recv: "DB", kind: "armed migration write-fence",
		releases: map[string]bool{"ReleaseFence": true},
	},
	{
		// A mux connection's recycled request bodies (rpc/frame.go): a
		// body taken for a frame and dropped on an early return is only
		// garbage, but one handed on without ever reaching putBody means
		// the pool drains and every request allocates again.
		method: "getBody", recv: "bodyPool", kind: "pooled request body",
		releases: map[string]bool{"putBody": true},
	},
}

func runReleaseOnError(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			// Tests acquire-and-abandon deliberately (fault injection,
			// pool-shrink regressions); the race jobs own them.
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncReleases(pass, fd)
		}
	}
	return nil
}

func checkFuncReleases(pass *Pass, fd *ast.FuncDecl) {
	// Find acquisitions first; build the (costlier) flow graph only if
	// there are any.
	type acquisition struct {
		stmt *ast.AssignStmt
		v    *ast.Ident
		obj  types.Object
		spec *acquireSpec
	}
	var acqs []acquisition
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		spec := matchAcquire(pass, sel)
		if spec == nil {
			return true
		}
		if len(as.Lhs) == 0 {
			return true
		}
		v, ok := as.Lhs[0].(*ast.Ident)
		if !ok || v.Name == "_" {
			return true
		}
		acqs = append(acqs, acquisition{stmt: as, v: v, obj: pass.Info.Defs[v], spec: spec})
		return true
	})
	if len(acqs) == 0 {
		return
	}

	g := buildFlow(fd.Body)
	if !g.ok {
		return // unmodelable control flow; stay silent rather than guess
	}
	for _, acq := range acqs {
		isV := identMatcher(pass, acq.v, acq.obj)

		// A defer that captures v is cleanup on every exit.
		deferred := false
		for _, call := range g.defers {
			ast.Inspect(call, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && isV(id) {
					deferred = true
				}
				return true
			})
		}
		if deferred {
			continue
		}

		start := findStmtNode(g.entry, acq.stmt)
		if start == nil {
			continue // acquire nested in init clause etc.; out of model
		}
		exempt := failFastReturns(pass, fd, acq.stmt)
		if leak := firstLeakyReturn(start, acq.spec, isV, exempt); leak != nil {
			pass.Reportf(acq.stmt.Pos(),
				"%s %q from %s may leak: return at %s is reachable without a release (%s) or handoff",
				acq.spec.kind, acq.v.Name, acq.spec.method,
				pass.Fset.Position(leak.Pos()), releaseNames(acq.spec))
		}
	}
}

// matchAcquire reports whether sel is a call of a configured acquire
// method, checking the receiver type when the selection resolves.
func matchAcquire(pass *Pass, sel *ast.SelectorExpr) *acquireSpec {
	for i := range releaseAcquires {
		spec := &releaseAcquires[i]
		if sel.Sel.Name != spec.method {
			continue
		}
		if selection, ok := pass.Info.Selections[sel]; ok {
			if namedTypeName(selection.Recv()) != spec.recv {
				continue
			}
		} else if !ast.IsExported(spec.method) {
			// Unexported acquires resolve in their declaring package; an
			// unresolved match elsewhere is a different method.
			continue
		}
		return spec
	}
	return nil
}

// identMatcher matches uses of the acquired variable, by object when
// the type checker resolved it and by name otherwise.
func identMatcher(pass *Pass, v *ast.Ident, obj types.Object) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		if obj != nil {
			return pass.Info.Uses[id] == obj || pass.Info.Defs[id] == obj
		}
		return id.Name == v.Name
	}
}

// findStmtNode locates the node holding stmt.
func findStmtNode(entry *flowNode, stmt ast.Stmt) *flowNode {
	seen := map[*flowNode]bool{}
	var walk func(n *flowNode) *flowNode
	walk = func(n *flowNode) *flowNode {
		if n == nil || seen[n] {
			return nil
		}
		seen[n] = true
		if n.stmt == stmt {
			return n
		}
		for _, s := range n.succs {
			if found := walk(s); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(entry)
}

// firstLeakyReturn walks successors of start looking for a return
// reachable while v is still live (never released or handed off on
// the path). Only the not-yet-consumed state explores; consumption
// ends a path.
func firstLeakyReturn(start *flowNode, spec *acquireSpec, isV func(ast.Expr) bool, exempt map[*ast.ReturnStmt]bool) *ast.ReturnStmt {
	visited := map[*flowNode]bool{}
	var walk func(n *flowNode) *ast.ReturnStmt
	walk = func(n *flowNode) *ast.ReturnStmt {
		if n == nil || visited[n] {
			return nil
		}
		visited[n] = true
		if nodeConsumes(n, spec, isV) {
			return nil
		}
		if n.ret != nil {
			if exempt[n.ret] {
				return nil
			}
			return n.ret
		}
		for _, s := range n.succs {
			if leak := walk(s); leak != nil {
				return leak
			}
		}
		return nil
	}
	for _, s := range start.succs {
		if leak := walk(s); leak != nil {
			return leak
		}
	}
	return nil
}

// failFastReturns collects the return statements inside the
// `if err != nil { ... }` guard immediately following the acquire,
// where err is the acquisition's second assignee. On that path the
// acquire itself failed, so the resource is nil and there is nothing
// to release — the standard Go fail-fast idiom must not be flagged.
func failFastReturns(pass *Pass, fd *ast.FuncDecl, acq *ast.AssignStmt) map[*ast.ReturnStmt]bool {
	if len(acq.Lhs) != 2 {
		return nil
	}
	errID, ok := acq.Lhs[1].(*ast.Ident)
	if !ok || errID.Name == "_" {
		return nil
	}
	next := nextSiblingStmt(fd.Body, acq)
	ifs, ok := next.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return nil
	}
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ {
		return nil
	}
	isErr := identMatcher(pass, errID, pass.Info.Defs[errID])
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !(isErr(cond.X) && isNil(cond.Y) || isErr(cond.Y) && isNil(cond.X)) {
		return nil
	}
	out := map[*ast.ReturnStmt]bool{}
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			out[r] = true
		}
		return true
	})
	return out
}

// nextSiblingStmt finds the statement following stmt in its enclosing
// statement list.
func nextSiblingStmt(root ast.Node, stmt ast.Stmt) ast.Stmt {
	var next ast.Stmt
	scan := func(list []ast.Stmt) {
		for i, s := range list {
			if s == stmt && i+1 < len(list) {
				next = list[i+1]
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if next != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.BlockStmt:
			scan(n.List)
		case *ast.CaseClause:
			scan(n.Body)
		case *ast.CommClause:
			scan(n.Body)
		}
		return true
	})
	return next
}

// nodeConsumes reports whether the node's evaluated syntax releases
// or hands off v (see the analyzer doc for the exact positions).
func nodeConsumes(n *flowNode, spec *acquireSpec, isV func(ast.Expr) bool) bool {
	consumed := false
	for _, scan := range n.scan {
		ast.Inspect(scan, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.CallExpr:
				if sel, ok := node.Fun.(*ast.SelectorExpr); ok && isV(sel.X) && spec.releases[sel.Sel.Name] {
					consumed = true
				}
				for _, a := range node.Args {
					if isV(a) {
						consumed = true
					}
				}
			case *ast.AssignStmt:
				for _, r := range node.Rhs {
					if isV(r) {
						consumed = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range node.Results {
					if isV(r) {
						consumed = true
					}
				}
			case *ast.CompositeLit:
				for _, el := range node.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if isV(el) {
						consumed = true
					}
				}
			case *ast.UnaryExpr:
				if node.Op == token.AND && isV(node.X) {
					consumed = true
				}
			case *ast.SendStmt:
				if isV(node.Value) {
					consumed = true
				}
			}
			return true
		})
	}
	return consumed
}

func releaseNames(spec *acquireSpec) string {
	out := ""
	for _, name := range sortedKeys(spec.releases) {
		if out != "" {
			out += "/"
		}
		out += name
	}
	return out
}
