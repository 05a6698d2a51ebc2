package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LatchOrder machine-checks the sqldb engine's latch discipline, the
// generalization of the bespoke go/types scanner that used to live in
// internal/sqldb/latch_audit_test.go:
//
//  1. Every function that touches table structure (Table.rows,
//     Table.free, Table.pk, Table.idxs) or the catalog (DB.tables)
//     must carry a named latch story: an entry in LatchAudit, or a
//     "latch:" line in its doc comment. Touch structure from a new
//     function and the analyzer fails until a human writes down which
//     latch makes it safe.
//  2. Latch acquisitions inside one function must follow that
//     package's hierarchy (latchHierarchies): for sqldb, fence plane
//     (fenceMu) → catalog (catMu) → table latch (latch) → row stripe
//     (rowLatch) → lock-manager stripe (mu) → waits-for graph
//     (graphMu); for runtime, migration serializer (migMu) → map-epoch
//     mutex (epochMu). A lower-ranked acquisition after a
//     higher-ranked one is an inversion that can deadlock, unless the
//     function is in LatchOrderAllow with a story explaining why it
//     cannot (e.g. the earlier latch is provably released first).
//  3. The DB struct must never regain a sync.Mutex field — the engine
//     stays sharded (nested lock planes like fenceControl carry their
//     own mutex and their own rank).
//
// The analyzer binds to the packages latchHierarchies names (the
// engine, the shard-routing runtime, and their analysistest
// fixtures); everywhere else it is a no-op. Rules 1 and 3 and the
// vacuity/staleness guards are sqldb-structural and stay sqldb-only.
// Test files are exempt from rules 1-2: tests poke structure
// deliberately under controlled single-session setups, and the race
// jobs watch them.
var LatchOrder = &Analyzer{
	Name: "latchorder",
	Doc: "enforce per-package latch hierarchies (sqldb: fence -> catalog -> table -> row stripe -> lock stripe -> graph; " +
		"runtime: migration -> map epoch) and the audited-allowlist rule for structural field access",
	Run: runLatchOrder,
}

// LatchAudit maps "(recv).func" to the latch that makes the
// function's structural accesses safe. It is THE allowlist — the one
// the old latch_audit_test.go carried — now shared by every driver
// (standalone pyxis-lint, go vet -vettool, and the sqldb wrapper
// test). Extend it (or give the function a "latch:" doc line) when a
// new function legitimately touches table structure.
var LatchAudit = map[string]string{
	// Catalog (DB.tables).
	"(*DB).createTable": "catMu exclusive",
	"(*DB).createIndex": "catMu read for lookup; table latch exclusive for the build",
	"(*DB).lookupTable": "catMu read",
	"(*DB).Snapshot":    "catMu read, then every table latch shared",

	// Table structure under the table latch.
	"(*Table).rowAt":           "caller holds table latch >= read; slot stripe inside",
	"(*Table).setRow":          "caller holds table latch >= read; slot stripe inside",
	"(*Table).NumRows":         "table latch shared",
	"(*Table).addToIndexes":    "caller holds table latch exclusive",
	"(*Table).dropFromIndexes": "caller holds table latch exclusive",

	// Binding (plan.go): the index set is read under the table's shared
	// latch, taken by the binder around these calls. The plan keeps the
	// tree pointers it chose; it is used only under the statement's
	// latches and only while the catalog epoch it was bound at stands.
	"choosePath":   "table latch shared, held by (*binder).levels and (*binder).joinOrder",
	"isIndexedCol": "table latch shared, held by (*DB).bindUpdate",

	// Bound-plan execution (exec.go); the plan's latch set is taken in
	// (*Session).run.
	"(*Session).execInsert": "table latch exclusive (suspended across the slot's lock wait, key revalidated after)",
	"(*Session).execUpdate": "table latch exclusive if the plan sets an indexed column, shared otherwise",
	"(*Session).execDelete": "table latch exclusive",
	"(*Session).matchRows":  "statement's latch >= read (suspended across lock waits, epoch revalidated after); rows via rowAt stripes",

	// Transaction finalization.
	"(*DB).commit":   "exclusive latch on every table with freed slots",
	"(*DB).rollback": "exclusive latch on every table in the undo log",

	// Migration fence plane (rank above the catalog: never held
	// together with any table latch).
	"(*DB).ArmFence":     "fenceMu exclusive; no table latch taken while held",
	"(*DB).ReleaseFence": "fenceMu exclusive; no table latch taken while held",
}

// LatchOrderAllow exempts functions from the in-function acquisition
// order rule, each with the story for why the apparent inversion is
// safe.
var LatchOrderAllow = map[string]string{
	// A bare "acquireLock" entry used to sit here for the lock-wait
	// path; staleallow caught it as dead — the real function is the
	// method (*Session).acquireLock, which suspends every statement
	// latch before parking, so the ordered scan finds nothing to
	// exempt there in the first place.
	"(*lockManager).releaseAll": "graphMu is taken and released to drop the waits-for edges BEFORE the " +
		"stripe sweep starts; graphMu and a stripe mu are never held together",
	"(*lockManager).cancelWaits": "graphMu is taken and released to drop the waits-for edges BEFORE the " +
		"stripe sweep starts; graphMu and a stripe mu are never held together",
}

// latchStructuralFields lists the guarded fields per receiver type.
var latchStructuralFields = map[string]map[string]bool{
	"Table": {"rows": true, "free": true, "pk": true, "idxs": true},
	"DB":    {"tables": true},
}

// latchHierarchies orders each audited package's latch hierarchy top
// (lowest rank) to bottom (highest). The fence plane ranks above the
// catalog: ArmFence/ReleaseFence take fenceMu with no other latch
// held, and fenceGate's lazy-expiry path takes it before execStmt ever
// reaches the table latches. In runtime, Migrator.Move holds migMu
// across a whole move and publishes the successor map (epochMu) while
// holding it, so a path taking epochMu first could deadlock a
// concurrent move.
var latchHierarchies = map[string]map[string]int{
	"sqldb": {
		"fenceMu":  1,
		"catMu":    2,
		"latch":    3,
		"rowLatch": 4,
		"mu":       5,
		"graphMu":  6,
	},
	"runtime": {
		"migMu":   1,
		"epochMu": 2,
	},
}

// latchStoryDoc matches a "latch:" story line in a function's doc
// comment — the decentralized alternative to a LatchAudit entry.
var latchStoryDoc = regexp.MustCompile(`(?i)\blatch:\s*\S`)

func runLatchOrder(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	ranks := latchHierarchies[pass.Pkg.Name()]
	if ranks == nil {
		return nil
	}
	order := hierarchyString(ranks)
	// Rules 1 and 3 and the vacuity/staleness guards inspect sqldb's
	// structural types; other audited packages get rule 2 only.
	structural := pass.Pkg.Name() == "sqldb"

	// Rule 3 first: it applies to test and non-test files alike.
	for _, f := range pass.Files {
		if !structural {
			break
		}
		syncName := ImportName(f, "sync")
		if syncName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "DB" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if sel, ok := fld.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName && sel.Sel.Name == "Mutex" {
						pass.Reportf(fld.Pos(), "DB regained a sync.Mutex field (%v) — the engine must stay sharded", fld.Names)
					}
				}
			}
			return true
		})
	}

	resolved := 0
	liveFuncs := map[string]bool{}
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
			liveFuncs[fn] = true
			audited := LatchAudit[fn] != "" ||
				(fd.Doc != nil && latchStoryDoc.MatchString(fd.Doc.Text()))

			// Rule 1: structural access sites need a latch story.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if !structural {
					return false
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := pass.Info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return true
				}
				resolved++
				recv := namedTypeName(selection.Recv())
				fields := latchStructuralFields[recv]
				if fields == nil || !fields[sel.Sel.Name] {
					return true
				}
				if !audited {
					pass.Reportf(sel.Pos(),
						"%s touches %s.%s without a latch story (add a LatchAudit entry or a \"latch:\" doc line)",
						fn, recv, sel.Sel.Name)
				}
				return true
			})

			// Rule 2: in-function acquisition order must go down the
			// hierarchy. Source order approximates path order; functions
			// that release before re-acquiring go in LatchOrderAllow with
			// their story.
			if _, exempt := LatchOrderAllow[fn]; exempt {
				continue
			}
			for _, viol := range latchOrderViolations(fd, ranks) {
				pass.Reportf(viol.pos,
					"%s acquires %s (rank %d) after %s (rank %d) — latch order is %s",
					fn, viol.field, viol.rank, viol.prevField, viol.prevRank, order)
			}
		}
	}

	// Vacuity guard, inherited from the old audit test: if the package
	// declares the guarded types but the (tolerant) type check resolved
	// no field selections at all, the audit would pass while seeing
	// nothing.
	if structural && guardedSomewhere(pass) && resolved == 0 {
		pass.Reportf(pass.Files[0].Pos(),
			"latch audit is vacuous: package declares guarded types but no field selection resolved — type check broke")
	}

	// Stale-entry rule (the old TestLatchAuditEntriesLive): once any
	// LatchAudit entry matches a live function — i.e. we are looking at
	// the package the allowlist describes, not a fixture — every entry
	// must.
	anyLive := false
	for fn := range LatchAudit {
		if liveFuncs[fn] {
			anyLive = true
			break
		}
	}
	if anyLive {
		for _, fn := range sortedKeys(LatchAudit) {
			if !liveFuncs[fn] {
				pass.Reportf(pass.Files[0].Pos(),
					"LatchAudit entry %q names a function that no longer exists", fn)
			}
		}
	}
	return nil
}

// hierarchyString renders a package's hierarchy as "a -> b -> c" in
// rank order — the fix-it hint the inversion diagnostic carries.
func hierarchyString(ranks map[string]int) string {
	names := make([]string, 0, len(ranks))
	for name := range ranks {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return ranks[names[i]] < ranks[names[j]] })
	return strings.Join(names, " -> ")
}

// latchOrderViolation is one rule-2 inversion found by the
// exemption-blind scan. runLatchOrder reports them for functions
// outside LatchOrderAllow; staleallow re-runs the scan for functions
// INSIDE it to prove each entry still exempts something.
type latchOrderViolation struct {
	pos              token.Pos
	field, prevField string
	rank, prevRank   int
}

// latchOrderViolations scans one function body for hierarchy
// inversions: a lower-ranked acquisition in source order after a
// higher-ranked one.
func latchOrderViolations(fd *ast.FuncDecl, ranks map[string]int) []latchOrderViolation {
	var out []latchOrderViolation
	maxRank, maxName := 0, ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		field, kind, ok := latchLockCall(n)
		if !ok || kind != latchAcquire {
			return true
		}
		rank := ranks[field]
		if rank == 0 {
			return true
		}
		if rank < maxRank {
			out = append(out, latchOrderViolation{
				pos: n.Pos(), field: field, rank: rank,
				prevField: maxName, prevRank: maxRank,
			})
			return true
		}
		if rank > maxRank {
			maxRank, maxName = rank, field
		}
		return true
	})
	return out
}

// latchLockCall kinds.
const (
	latchAcquire = iota
	latchRelease
)

// latchLockCall classifies n as a latch acquisition or release when it
// is a call of the form X.<field>.Lock() / RLock() / Unlock() /
// RUnlock(), possibly through an index expression (rowLatch[i],
// stripes[i].mu), returning the latch field name.
func latchLockCall(n ast.Node) (field string, kind int, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = latchAcquire
	case "Unlock", "RUnlock":
		kind = latchRelease
	default:
		return "", 0, false
	}
	base := sel.X
	for {
		switch b := base.(type) {
		case *ast.IndexExpr:
			base = b.X
		case *ast.ParenExpr:
			base = b.X
		case *ast.SelectorExpr:
			return b.Sel.Name, kind, true
		case *ast.Ident:
			return b.Name, kind, true
		default:
			return "", 0, false
		}
	}
}

// guardedSomewhere reports whether the package declares any of the
// guarded type names with at least one guarded field.
func guardedSomewhere(pass *Pass) bool {
	for _, f := range pass.Files {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || latchStructuralFields[ts.Name.Name] == nil {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if latchStructuralFields[ts.Name.Name][name.Name] {
						found = true
					}
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// funcKey renders a FuncDecl as the "(recv).name" key the allowlists
// use.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	switch rt := recv.(type) {
	case *ast.StarExpr:
		if id, ok := rt.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return "(" + rt.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// namedTypeName unwraps pointers to the receiver type's name.
func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}
