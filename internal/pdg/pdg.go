// Package pdg builds the partition graph (paper §4.2): a program
// dependence graph over statements and fields augmented with edge
// weights that model the cost of satisfying each dependency remotely.
// Nodes carry the estimated server load of executing them on the
// database; control/data/update edges carry estimated network time;
// output/anti dependence edges (unweighted) order statements for the
// reordering optimization.
package pdg

import (
	"fmt"
	"sort"
	"strings"

	"pyxis/internal/analysis"
	"pyxis/internal/profile"
	"pyxis/internal/source"
)

// Loc is a placement: the application server or the database server.
type Loc uint8

const (
	Unpinned Loc = iota
	App
	DB
)

func (l Loc) String() string {
	switch l {
	case App:
		return "APP"
	case DB:
		return "DB"
	}
	return "-"
}

// Placement assigns every partition-graph node a location.
type Placement map[source.NodeID]Loc

// Of returns the placement of id (App if absent, the safe default).
func (p Placement) Of(id source.NodeID) Loc {
	if l, ok := p[id]; ok {
		return l
	}
	return App
}

// NodeKind classifies partition graph nodes.
type NodeKind uint8

const (
	StmtNode NodeKind = iota
	FieldNode
	EntryNode // synthetic method-entry node
	DBCodeNode
)

// Node is one vertex of the partition graph.
type Node struct {
	ID     source.NodeID
	Kind   NodeKind
	Label  string
	Weight float64 // estimated CPU load if placed on the database
	Pin    Loc     // Unpinned, or a mandatory placement
}

// EdgeKind classifies partition graph edges.
type EdgeKind uint8

const (
	CtrlEdge EdgeKind = iota
	DataEdge
	UpdateEdge
	OutputEdge // write-after-write (ordering only)
	AntiEdge   // read-before-write (ordering only)
)

func (k EdgeKind) String() string {
	switch k {
	case CtrlEdge:
		return "control"
	case DataEdge:
		return "data"
	case UpdateEdge:
		return "update"
	case OutputEdge:
		return "output"
	case AntiEdge:
		return "anti"
	}
	return "?"
}

// Edge is one dependency. Weight is the estimated time cost (seconds)
// of satisfying it across the network, per the §4.2 formulas; ordering
// edges have weight 0 and are excluded from the objective.
type Edge struct {
	Src, Dst source.NodeID
	Kind     EdgeKind
	Weight   float64
	Label    string
}

// Graph is the weighted partition graph plus placement constraints.
type Graph struct {
	Prog  *source.Program
	Nodes map[source.NodeID]*Node
	Edges []*Edge
	// Groups lists node sets that must share a placement (the JDBC
	// same-partition constraint, paper §4.3).
	Groups [][]source.NodeID
	// DBCodeID is the synthetic "database code" node (pinned DB).
	DBCodeID source.NodeID
	// AppClientID is the synthetic node representing the external
	// caller of entry-point wrappers (pinned APP): invoking an entry
	// method whose prologue lives on the database costs a control
	// transfer, which is what keeps database-free code (e.g. TPC-W's
	// order-inquiry page) on the application server.
	AppClientID source.NodeID
}

// Options tunes graph construction.
type Options struct {
	// ChargeDataAtLatency weights data edges like control edges
	// (LAT·cnt) instead of the paper's bandwidth-proportional
	// size/BW·cnt. This deliberately breaks the §4.2 insight that data
	// piggy-backs on control transfers; it exists for the weight-model
	// ablation.
	ChargeDataAtLatency bool
}

// Build assembles the weighted partition graph from the dependency
// analysis and the workload profile, pricing the network at the
// profile's RTT and bandwidth.
func Build(res *analysis.Result, prof *profile.Profile, opts Options) *Graph {
	lat := prof.Latency.Seconds()
	bw := prof.BandwidthBps
	if bw == 0 {
		bw = 125e6
	}

	g := &Graph{
		Prog:        res.Prog,
		Nodes:       map[source.NodeID]*Node{},
		DBCodeID:    res.Prog.MaxNode + 1,
		AppClientID: res.Prog.MaxNode + 2,
	}

	// --- Nodes ---------------------------------------------------------
	for id, s := range res.Prog.Stmts {
		n := &Node{ID: id, Kind: StmtNode, Weight: prof.Cnt(id), Label: stmtLabel(s)}
		if source.HasPrint(s) {
			n.Pin = App // console output stays on the application server
		}
		g.Nodes[id] = n
	}
	for id, f := range res.Prog.Fields {
		g.Nodes[id] = &Node{ID: id, Kind: FieldNode, Weight: 0, Label: f.QName()}
	}
	entryCnt := map[source.NodeID]float64{}
	for _, ce := range res.Calls {
		entryCnt[ce.Callee.EntryID] += prof.Cnt(ce.Stmt)
	}
	for id, n := range prof.EntryCalls {
		entryCnt[id] += float64(n)
	}
	for id, m := range res.Prog.MethodEntries {
		g.Nodes[id] = &Node{ID: id, Kind: EntryNode, Weight: 0, Label: "entry " + m.QName()}
	}
	g.Nodes[g.DBCodeID] = &Node{ID: g.DBCodeID, Kind: DBCodeNode, Pin: DB, Label: "database code"}
	g.Nodes[g.AppClientID] = &Node{ID: g.AppClientID, Kind: DBCodeNode, Pin: App, Label: "application client"}

	cnt := func(id source.NodeID) float64 {
		switch g.Nodes[id].Kind {
		case EntryNode:
			return entryCnt[id]
		case FieldNode, DBCodeNode:
			return -1 // "infinite": use the other endpoint's count
		default:
			return prof.Cnt(id)
		}
	}
	cntEdge := func(a, b source.NodeID) float64 {
		ca, cb := cnt(a), cnt(b)
		if ca < 0 {
			return cb
		}
		if cb < 0 {
			return ca
		}
		if ca < cb {
			return ca
		}
		return cb
	}

	addEdge := func(src, dst source.NodeID, kind EdgeKind, w float64, label string) {
		if src == dst {
			return
		}
		g.Edges = append(g.Edges, &Edge{Src: src, Dst: dst, Kind: kind, Weight: w, Label: label})
	}
	// dataWeight prices moving `size` bytes `cnt` times across the cut.
	dataWeight := func(size, cnt float64) float64 {
		if opts.ChargeDataAtLatency {
			return lat * cnt
		}
		return size / bw * cnt
	}

	// --- Control dependencies -------------------------------------------
	for _, mi := range res.Methods {
		for sid, ctrls := range mi.CtrlDeps {
			for _, c := range ctrls {
				src := c
				if c == source.NoNode {
					src = mi.Method.EntryID
				}
				addEdge(src, sid, CtrlEdge, lat*cntEdge(src, sid), "")
			}
		}
	}
	// Interprocedural control: call site → callee entry.
	for _, ce := range res.Calls {
		addEdge(ce.Stmt, ce.Callee.EntryID, CtrlEdge, lat*prof.Cnt(ce.Stmt), "call "+ce.Callee.QName())
	}
	// External invocations: the entry-point wrappers run on the
	// application server; reaching an entry prologue placed on the
	// database costs one control transfer per call, plus argument
	// shipping.
	for entryID, n := range prof.EntryCalls {
		m := res.Prog.MethodEntries[entryID]
		if m == nil {
			continue
		}
		addEdge(g.AppClientID, entryID, CtrlEdge, lat*float64(n), "invoke "+m.QName())
		argBytes := 0
		for _, prm := range m.Params {
			argBytes += analysis.TypeSize(prm.Type)
		}
		addEdge(g.AppClientID, entryID, DataEdge, dataWeight(float64(argBytes), float64(n)), "args")
	}
	// Database code: each statement performing a DB call round-trips to
	// the database if it is not colocated with it.
	var dbStmts []source.NodeID
	for id, s := range res.Prog.Stmts {
		if source.HasDBCall(s) {
			calls := float64(prof.DBCalls[id])
			if calls == 0 {
				calls = prof.Cnt(id)
			}
			addEdge(id, g.DBCodeID, CtrlEdge, lat*calls, "db")
			dbStmts = append(dbStmts, id)
		}
	}
	sort.Slice(dbStmts, func(i, j int) bool { return dbStmts[i] < dbStmts[j] })
	if len(dbStmts) > 1 {
		// The driver holds unserializable connection state: every DB
		// call must live on one partition (paper §4.3).
		g.Groups = append(g.Groups, dbStmts)
	}

	// --- Data dependencies ------------------------------------------------
	for _, du := range res.DefUse {
		var size float64
		if g.Nodes[du.From].Kind == EntryNode {
			size = float64(analysis.TypeSize(du.Local.Type))
		} else {
			size = prof.AvgSize(du.From)
		}
		addEdge(du.From, du.To, DataEdge, dataWeight(size, cntEdge(du.From, du.To)), du.Local.Name)
	}
	for _, ce := range res.Calls {
		addEdge(ce.Stmt, ce.Callee.EntryID, DataEdge,
			dataWeight(float64(ce.ArgBytes), prof.Cnt(ce.Stmt)), "args")
	}
	for _, re := range res.Returns {
		addEdge(re.Ret, re.Call, DataEdge, dataWeight(float64(re.Bytes), cntEdge(re.Ret, re.Call)), "ret")
	}
	for _, fd := range res.FieldDeps {
		size := prof.FieldAvgSize(fd.Field.ID)
		if fd.Write {
			// Update edge: field declaration → updating statement,
			// weighted size(field)/BW · cnt(updater) (§4.2).
			addEdge(fd.Field.ID, fd.Stmt, UpdateEdge, dataWeight(size, prof.Cnt(fd.Stmt)), fd.Field.Name)
		} else {
			addEdge(fd.Field.ID, fd.Stmt, DataEdge, dataWeight(size, prof.Cnt(fd.Stmt)), fd.Field.Name)
		}
	}
	for _, ad := range res.ArrayDeps {
		addEdge(ad.From, ad.To, DataEdge,
			dataWeight(prof.AvgSize(ad.From), cntEdge(ad.From, ad.To)), "elements")
	}

	// --- Ordering edges (reordering only) ---------------------------------
	g.addOrderingEdges(res)
	return g
}

// addOrderingEdges emits output/anti ordering edges between statements
// of the same block, preserving mutation order for the reordering
// optimization (§4.4). Conflict detection folds transitive callee
// side-effects into each call site (the paper's footnote-4
// summarization); loop/branch headers additionally conflict with any
// statement their body conflicts with, since reordering moves the
// whole construct.
func (g *Graph) addOrderingEdges(res *analysis.Result) {
	// nested[id] lists the statement plus all statements nested in it.
	nested := map[source.NodeID][]source.NodeID{}
	for _, cl := range res.Prog.Classes {
		for _, m := range cl.Methods {
			source.WalkMethodStmts(m, func(outer source.Stmt) bool {
				ids := []source.NodeID{outer.ID()}
				switch st := outer.(type) {
				case *source.IfStmt:
					collect(&ids, st.Then)
					collect(&ids, st.Else)
				case *source.WhileStmt:
					collect(&ids, st.Body)
				case *source.ForEachStmt:
					collect(&ids, st.Body)
				}
				nested[outer.ID()] = ids
				return true
			})
		}
	}
	conflict := func(a, b source.NodeID, kind func(x, y source.NodeID) bool) bool {
		for _, x := range nested[a] {
			for _, y := range nested[b] {
				if kind(x, y) {
					return true
				}
			}
		}
		return false
	}

	// Statements that may exit the block early (return/break anywhere in
	// their subtree) are barriers: nothing may migrate across them,
	// since moving code past an exit changes what executes.
	isBarrier := map[source.NodeID]bool{}
	for id, ids := range nested {
		for _, x := range ids {
			switch res.Prog.Stmts[x].(type) {
			case *source.ReturnStmt, *source.BreakStmt:
				isBarrier[id] = true
			}
		}
	}

	var doBlock func(b *source.Block)
	doBlock = func(b *source.Block) {
		for i, si := range b.Stmts {
			for j := i + 1; j < len(b.Stmts); j++ {
				sj := b.Stmts[j]
				switch {
				case isBarrier[si.ID()] || isBarrier[sj.ID()]:
					g.Edges = append(g.Edges, &Edge{Src: si.ID(), Dst: sj.ID(), Kind: OutputEdge})
				case conflict(si.ID(), sj.ID(), res.ConflictWW):
					g.Edges = append(g.Edges, &Edge{Src: si.ID(), Dst: sj.ID(), Kind: OutputEdge})
				case conflict(si.ID(), sj.ID(), res.ConflictRW):
					g.Edges = append(g.Edges, &Edge{Src: si.ID(), Dst: sj.ID(), Kind: AntiEdge})
				}
			}
		}
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *source.IfStmt:
				doBlock(st.Then)
				if st.Else != nil {
					doBlock(st.Else)
				}
			case *source.WhileStmt:
				doBlock(st.Body)
			case *source.ForEachStmt:
				doBlock(st.Body)
			}
		}
	}
	for _, cl := range res.Prog.Classes {
		for _, m := range cl.Methods {
			doBlock(m.Body)
		}
	}
}

// collect appends all statement IDs in a block (recursively).
func collect(ids *[]source.NodeID, b *source.Block) {
	if b == nil {
		return
	}
	source.WalkStmts(b, func(s source.Stmt) bool {
		*ids = append(*ids, s.ID())
		return true
	})
}

func stmtLabel(s source.Stmt) string {
	switch st := s.(type) {
	case *source.DeclStmt:
		if st.Init != nil {
			return fmt.Sprintf("%s %s = %s", st.Local.Type, st.Local.Name, clip(source.ExprString(st.Init)))
		}
		return fmt.Sprintf("%s %s", st.Local.Type, st.Local.Name)
	case *source.AssignStmt:
		return fmt.Sprintf("%s %s %s", clip(source.ExprString(st.LHS)), st.Op, clip(source.ExprString(st.RHS)))
	case *source.ExprStmt:
		return clip(source.ExprString(st.X))
	case *source.IfStmt:
		return "if " + clip(source.ExprString(st.Cond))
	case *source.WhileStmt:
		return "while " + clip(source.ExprString(st.Cond))
	case *source.ForEachStmt:
		return fmt.Sprintf("for %s : %s", st.Var.Name, clip(source.ExprString(st.Arr)))
	case *source.ReturnStmt:
		if st.X != nil {
			return "return " + clip(source.ExprString(st.X))
		}
		return "return"
	case *source.BreakStmt:
		return "break"
	}
	return "?"
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}

// CutCost returns the total weight of dependency edges cut by a
// placement, plus the total DB load — the two quantities the ILP
// trades off.
func (g *Graph) CutCost(p Placement) (cut, load float64) {
	for _, e := range g.Edges {
		if e.Kind == OutputEdge || e.Kind == AntiEdge {
			continue
		}
		if p.Of(e.Src) != p.Of(e.Dst) {
			cut += e.Weight
		}
	}
	for _, n := range g.Nodes {
		if p.Of(n.ID) == DB {
			load += n.Weight
		}
	}
	return cut, load
}

// Validate checks that a placement respects pins and groups.
func (g *Graph) Validate(p Placement) error {
	for _, n := range g.Nodes {
		if n.Pin != Unpinned && p.Of(n.ID) != n.Pin {
			return fmt.Errorf("pdg: node %d (%s) pinned to %s but placed %s", n.ID, n.Label, n.Pin, p.Of(n.ID))
		}
	}
	for gi, grp := range g.Groups {
		for _, id := range grp[1:] {
			if p.Of(id) != p.Of(grp[0]) {
				return fmt.Errorf("pdg: group %d split: node %d on %s, node %d on %s",
					gi, grp[0], p.Of(grp[0]), id, p.Of(id))
			}
		}
	}
	return nil
}

// DOT renders the graph in Graphviz format; if p is non-nil, nodes are
// colored by placement (Fig. 4 visualization).
func (g *Graph) DOT(p Placement) string {
	var b strings.Builder
	b.WriteString("digraph partition {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	var ids []source.NodeID
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		attrs := fmt.Sprintf("label=%q", fmt.Sprintf("%d: %s", n.ID, n.Label))
		switch n.Kind {
		case FieldNode:
			attrs += ", shape=ellipse"
		case EntryNode:
			attrs += ", shape=diamond"
		case DBCodeNode:
			attrs += ", shape=cylinder"
		}
		if p != nil {
			if p.Of(id) == DB {
				attrs += ", style=filled, fillcolor=lightblue"
			} else {
				attrs += ", style=filled, fillcolor=lightyellow"
			}
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", id, attrs)
	}
	for _, e := range g.Edges {
		style := ""
		switch e.Kind {
		case DataEdge:
			style = "color=blue"
		case UpdateEdge:
			style = "color=red, style=dashed"
		case OutputEdge, AntiEdge:
			continue // ordering edges clutter the picture
		}
		lbl := ""
		if e.Label != "" {
			lbl = fmt.Sprintf(", label=%q", e.Label)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s%s];\n", e.Src, e.Dst, style, lbl)
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes the graph.
func (g *Graph) Stats() string {
	kinds := map[EdgeKind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	return fmt.Sprintf("nodes=%d edges=%d (control=%d data=%d update=%d output=%d anti=%d) groups=%d",
		len(g.Nodes), len(g.Edges), kinds[CtrlEdge], kinds[DataEdge], kinds[UpdateEdge],
		kinds[OutputEdge], kinds[AntiEdge], len(g.Groups))
}
