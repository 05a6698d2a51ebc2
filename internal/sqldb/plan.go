package sqldb

import (
	"fmt"
	"slices"
	"sync/atomic"

	"pyxis/internal/val"
)

// A statement runs in three steps: parse (text → AST, cached per DB by
// text), bind (AST → boundPlan against the current catalog: every name
// resolved to a table pointer or a column index, the access path and
// the latch set chosen), execute (the plan plus arguments, by index).
// Binding happens on a statement's first execution and again only when
// DDL has moved the catalog epoch since; execution never sees a name.
//
// A boundPlan is immutable and shared by every session executing the
// statement; what one execution needs to write — the current row per
// join level, the probe key, candidate slots — is scratch owned by the
// single-threaded Session.

// planCell is the slot a DML statement caches its plan in. Embedding
// it makes the statement a dmlStmt.
type planCell struct{ p atomic.Pointer[boundPlan] }

func (c *planCell) cell() *planCell { return c }

// dmlStmt is a statement that executes through a bound plan.
type dmlStmt interface {
	SQLStmt
	cell() *planCell
}

type exprOp uint8

const (
	opLit exprOp = iota
	opParam
	opCol
	opArith
)

// boundExpr is an SQLExpr with its column references resolved.
type boundExpr struct {
	op    exprOp
	arith byte       // opArith: '+', '-' or '*'
	level int        // opCol: join level of the row
	idx   int        // opCol: column index; opParam: argument index
	v     val.Value  // opLit
	l, r  *boundExpr // opArith
}

func (e *boundExpr) eval(rows [][]val.Value, args []val.Value) (val.Value, error) {
	switch e.op {
	case opLit:
		return e.v, nil
	case opParam:
		if e.idx >= len(args) {
			return val.Value{}, fmt.Errorf("sqldb: missing parameter %d", e.idx+1)
		}
		return args[e.idx], nil
	case opCol:
		return rows[e.level][e.idx], nil
	}
	l, err := e.l.eval(rows, args)
	if err != nil {
		return val.Value{}, err
	}
	r, err := e.r.eval(rows, args)
	if err != nil {
		return val.Value{}, err
	}
	if l.K == val.Int && r.K == val.Int {
		switch e.arith {
		case '+':
			return val.IntV(l.I + r.I), nil
		case '-':
			return val.IntV(l.I - r.I), nil
		default:
			return val.IntV(l.I * r.I), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch e.arith {
	case '+':
		return val.DoubleV(lf + rf), nil
	case '-':
		return val.DoubleV(lf - rf), nil
	default:
		return val.DoubleV(lf * rf), nil
	}
}

// deepest returns the deepest join level e reads, -1 when it reads no
// row. depth, when non-nil, first maps each level e names to another:
// the join-order search binds in FROM order and tries partial orders.
func (e *boundExpr) deepest(depth []int) int {
	switch e.op {
	case opCol:
		if depth != nil {
			return depth[e.level]
		}
		return e.level
	case opArith:
		return max(e.l.deepest(depth), e.r.deepest(depth))
	}
	return -1
}

// boundCond is one WHERE conjunct over bound expressions.
type boundCond struct {
	op   CmpOp
	l, r boundExpr
}

// sargable reports whether c compares a column of the table at level
// with an expression bound before the level — literals, parameters,
// rows of earlier levels — and returns the column, the expression and
// the operator as if the column were on the left. depth is deepest's.
func (c *boundCond) sargable(level int, depth []int) (col int, e *boundExpr, op CmpOp, ok bool) {
	switch {
	case c.l.op == opCol && c.l.deepest(depth) == level && c.r.deepest(depth) < level:
		return c.l.idx, &c.r, c.op, true
	case c.r.op == opCol && c.r.deepest(depth) == level && c.l.deepest(depth) < level:
		op = c.op
		switch op {
		case CmpLt:
			op = CmpGt
		case CmpLe:
			op = CmpGe
		case CmpGt:
			op = CmpLt
		case CmpGe:
			op = CmpLe
		}
		return c.r.idx, &c.l, op, true
	}
	return 0, nil, 0, false
}

func (c *boundCond) holds(rows [][]val.Value, args []val.Value) (bool, error) {
	l, err := c.l.eval(rows, args)
	if err != nil {
		return false, err
	}
	r, err := c.r.eval(rows, args)
	if err != nil {
		return false, err
	}
	switch c.op {
	case CmpLike:
		return l.K == val.Str && r.K == val.Str && likeMatch(l.S, r.S), nil
	case CmpEq:
		return l.Equal(r), nil
	case CmpNe:
		return !l.Equal(r), nil
	}
	cmp := val.Compare(l, r)
	switch c.op {
	case CmpLt:
		return cmp < 0, nil
	case CmpLe:
		return cmp <= 0, nil
	case CmpGt:
		return cmp > 0, nil
	default:
		return cmp >= 0, nil
	}
}

// levelPlan is one level of the nested-loop join (the only level of an
// UPDATE or DELETE): how to find candidate rows of the level's table
// and which conjuncts filter them.
type levelPlan struct {
	// conds are the conjuncts that become fully bound at this level,
	// in WHERE order.
	conds []boundCond
	accessPath
}

// accessPath is how a level finds its candidate rows. Every expression
// in it reads only literals, parameters and rows of earlier levels.
type accessPath struct {
	// tree is the index to probe (nil: scan the whole table) with the
	// equality prefix key, in index column order.
	tree *btree
	key  []boundExpr
	// lo and hi, when set, bound the index column right after the
	// prefix, both inclusive (the conjuncts recheck < and >). types are
	// the column types of the prefix and that column: a bound is used
	// only when every probe value sorts among its column's values as the
	// conjuncts compare it (sortsIn).
	lo, hi *boundExpr
	types  []ColType
	// point: key covers every column of a unique index, so the probe is
	// a Get with at most one match.
	point bool
}

// colAt addresses one column of the join's current rows. level -1 is
// the constant 1 that COUNT(*) folds.
type colAt struct{ level, col int }

type orderCol struct {
	colAt
	desc bool
}

type boundSet struct {
	col  int
	typ  ColType
	expr boundExpr
}

type stmtKind uint8

const (
	kindSelect stmtKind = iota
	kindInsert
	kindUpdate
	kindDelete
)

// boundPlan is one DML statement bound to one DB at one catalog epoch.
// Immutable once published.
type boundPlan struct {
	db    *DB
	epoch uint64
	kind  stmtKind

	// tables holds the FROM tables in join order (see joinOrder; one
	// entry for INSERT, UPDATE and DELETE); latches is the same set
	// deduplicated in latch order, taken exclusively iff latchX. An
	// UPDATE shares the latch unless it sets an indexed column: a non-key
	// update only swaps row pointers, index maintenance is structural.
	tables  []*Table
	latches []*Table
	latchX  bool
	levels  []levelPlan

	// SELECT. cols is shared by every ResultSet the plan produces.
	cols    []string
	proj    []colAt
	aggs    []string // aggregate per output column; nil for a plain query
	orderBy []orderCol
	limit   int // -1: none

	// INSERT stores vals[i], coerced, into column valCols[i]; UPDATE
	// applies sets to a copy of each matched row.
	vals    []boundExpr
	valCols []int
	sets    []boundSet
}

// plan returns st's plan for this session's DB at the current catalog
// epoch, binding it if the cached one is missing or stale. Concurrent
// first touches may each bind; the CompareAndSwap makes them converge
// on one shared plan.
func (s *Session) plan(st dmlStmt) (*boundPlan, error) {
	c := st.cell()
	old := c.p.Load()
	if s.db.planCurrent(old) {
		return old, nil
	}
	p, err := s.db.bind(st)
	if err != nil {
		return nil, err
	}
	if !c.p.CompareAndSwap(old, p) {
		if cur := c.p.Load(); s.db.planCurrent(cur) {
			return cur, nil
		}
	}
	return p, nil
}

func (db *DB) planCurrent(p *boundPlan) bool {
	return p != nil && p.db == db && p.epoch == db.epoch.Load()
}

// binder resolves names against the FROM list, always in FROM order:
// an unqualified column means the first FROM entry that has it, whatever
// the join order.
type binder struct {
	tables  []*Table // FROM order
	aliases []string
	// depth maps each FROM entry to its join level once joinOrder has
	// chosen one; nil means FROM order is the join order.
	depth []int
}

// fromList looks up the FROM tables.
func (db *DB) fromList(refs []TableRef) (*binder, error) {
	b := &binder{}
	for _, tr := range refs {
		t := db.lookupTable(tr.Table)
		if t == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, tr.Table)
		}
		b.tables = append(b.tables, t)
		b.aliases = append(b.aliases, tr.Alias)
	}
	return b, nil
}

// resolve finds the first FROM entry a column reference can mean and
// returns its join level.
func (b *binder) resolve(cr ColRef) (colAt, error) {
	for i, a := range b.aliases {
		if cr.Table != "" && cr.Table != a {
			continue
		}
		if ci, ok := b.tables[i].colIdx[cr.Col]; ok {
			return colAt{b.level(i), ci}, nil
		}
		if cr.Table != "" {
			return colAt{}, fmt.Errorf("sqldb: no column %s in %s", cr.Col, cr.Table)
		}
	}
	return colAt{}, fmt.Errorf("sqldb: unknown column %s", cr.Col)
}

// level returns the join level of FROM entry i.
func (b *binder) level(i int) int {
	if b.depth == nil {
		return i
	}
	return b.depth[i]
}

// expr binds e; its column references carry their join levels.
func (b *binder) expr(e SQLExpr) (boundExpr, error) {
	switch x := e.(type) {
	case LitExpr:
		return boundExpr{op: opLit, v: x.V}, nil
	case ParamExpr:
		return boundExpr{op: opParam, idx: x.Index}, nil
	case ColRef:
		at, err := b.resolve(x)
		if err != nil {
			return boundExpr{}, err
		}
		return boundExpr{op: opCol, level: at.level, idx: at.col}, nil
	case *ArithExpr:
		l, err := b.expr(x.L)
		if err != nil {
			return boundExpr{}, err
		}
		r, err := b.expr(x.R)
		if err != nil {
			return boundExpr{}, err
		}
		return boundExpr{op: opArith, arith: x.Op, l: &l, r: &r}, nil
	}
	return boundExpr{}, fmt.Errorf("sqldb: cannot evaluate expression %T", e)
}

// conds binds the WHERE conjuncts, in WHERE order.
func (b *binder) conds(where []Cond) ([]boundCond, error) {
	out := make([]boundCond, 0, len(where))
	for _, c := range where {
		l, err := b.expr(c.L)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(c.R)
		if err != nil {
			return nil, err
		}
		out = append(out, boundCond{op: c.Op, l: l, r: r})
	}
	return out, nil
}

// joinOrder places at each join level, in turn, the unplaced FROM table
// with the best access path given the tables placed before it
// (choosePath's rank); ties keep FROM order. It records the order in
// b.depth and returns the tables in join order. Only the set of rows
// each level enumerates changes: the conjuncts, and so the result rows,
// are the same in any order.
func (b *binder) joinOrder(where []Cond) ([]*Table, error) {
	n := len(b.tables)
	if n < 2 {
		return b.tables, nil
	}
	conds, err := b.conds(where) // FROM numbering: b.depth is still nil
	if err != nil {
		return nil, err
	}
	depth := make([]int, n)
	for i := range depth {
		depth[i] = n // unplaced: deeper than every level
	}
	order := make([]*Table, n)
	for d := range order {
		best, bestRank := -1, -1
		for i, t := range b.tables {
			if depth[i] < n {
				continue
			}
			depth[i] = d
			t.latch.RLock()
			_, rank := choosePath(t, d, conds, depth)
			t.latch.RUnlock()
			depth[i] = n
			if rank > bestRank {
				best, bestRank = i, rank
			}
		}
		depth[best] = d
		order[d] = b.tables[best]
	}
	b.depth = depth
	return order, nil
}

// levels distributes the WHERE conjuncts over the join levels of tables
// (in join order) — each filters at the level where its last column
// becomes bound — and picks every level's access path.
func (b *binder) levels(tables []*Table, where []Cond) ([]levelPlan, error) {
	conds, err := b.conds(where)
	if err != nil {
		return nil, err
	}
	levels := make([]levelPlan, len(tables))
	for _, c := range conds {
		at := max(c.l.deepest(nil), c.r.deepest(nil), 0)
		levels[at].conds = append(levels[at].conds, c)
	}
	for i, t := range tables {
		t.latch.RLock()
		levels[i].accessPath, _ = choosePath(t, i, levels[i].conds, nil)
		t.latch.RUnlock()
	}
	return levels, nil
}

// pointRank ranks a Get above every leaf walk.
const pointRank = 1 << 30

// choosePath picks the access path of the table at level: the index (PK
// or secondary) that bounds its leaf walk tightest, by conjuncts that
// compare one of its columns with an expression bound before the level
// (sargable; depth is deepest's). An index scores 2 × the length of its
// equality-bound prefix, plus 1 if a <, <=, > or >= conjunct bounds the
// index column right after the prefix; a unique index whose whole key
// is equality-bound is a point, a Get, and outranks every walk. Ties
// keep the earlier index: the PK, then declaration order. The rank
// returned orders the join (point > longer prefix > prefix + range >
// scan, 0). Caller holds t.latch in at least read mode (the index set
// is read).
func choosePath(t *Table, level int, conds []boundCond, depth []int) (accessPath, int) {
	// column → the expression it must equal, its first lower bound and
	// its first upper bound
	eq, lo, hi := map[int]*boundExpr{}, map[int]*boundExpr{}, map[int]*boundExpr{}
	for i := range conds {
		col, e, op, ok := conds[i].sargable(level, depth)
		switch {
		case !ok:
		case op == CmpEq:
			eq[col] = e
		case (op == CmpGt || op == CmpGe) && lo[col] == nil:
			lo[col] = e
		case (op == CmpLt || op == CmpLe) && hi[col] == nil:
			hi[col] = e
		}
	}
	var best accessPath
	bestRank := 0
	consider := func(tree *btree, cols []int, unique bool) {
		n := 0
		for n < len(cols) && eq[cols[n]] != nil {
			n++
		}
		rank := 2 * n
		var l, h *boundExpr
		if n == len(cols) && unique {
			rank = pointRank
		} else if n < len(cols) {
			l, h = lo[cols[n]], hi[cols[n]]
			if l != nil || h != nil {
				rank++
			}
		}
		if rank <= bestRank {
			return
		}
		bestRank = rank
		best = accessPath{tree: tree, key: make([]boundExpr, n), lo: l, hi: h, point: rank == pointRank}
		for i := range best.key {
			best.key[i] = *eq[cols[i]]
		}
		if l != nil || h != nil {
			for _, c := range cols[:n+1] {
				best.types = append(best.types, t.cols[c].Type)
			}
		}
	}
	consider(t.pk, t.pkCols, true)
	for _, ix := range t.idxs {
		consider(ix.tree, ix.cols, ix.unique)
	}
	return best, bestRank
}

// bind builds st's plan against the current catalog. The epoch is read
// first: DDL that lands while the plan is being built leaves it stamped
// stale, and the next execution binds again.
func (db *DB) bind(st dmlStmt) (*boundPlan, error) {
	p := &boundPlan{db: db, epoch: db.epoch.Load()}
	var err error
	switch t := st.(type) {
	case *SelectStmt:
		err = db.bindSelect(p, t)
	case *InsertStmt:
		err = db.bindInsert(p, t)
	case *UpdateStmt:
		err = db.bindUpdate(p, t)
	case *DeleteStmt:
		p.kind = kindDelete
		// Tombstoning drops index entries: structural.
		p.latchX = true
		_, err = db.bindTarget(p, t.Table, t.Where)
	}
	if err != nil {
		return nil, err
	}
	p.latches = latchOrder(p.tables)
	return p, nil
}

// bindTarget binds the single table of an INSERT, UPDATE or DELETE and
// its WHERE clause.
func (db *DB) bindTarget(p *boundPlan, table string, where []Cond) (*binder, error) {
	b, err := db.fromList([]TableRef{{Table: table, Alias: table}})
	if err != nil {
		return nil, err
	}
	p.tables = b.tables
	p.levels, err = b.levels(p.tables, where)
	return b, err
}

func (db *DB) bindSelect(p *boundPlan, st *SelectStmt) error {
	p.kind = kindSelect
	b, err := db.fromList(st.Tables)
	if err != nil {
		return err
	}
	if p.tables, err = b.joinOrder(st.Where); err != nil {
		return err
	}
	if err := b.selectList(p, st); err != nil {
		return err
	}
	p.levels, err = b.levels(p.tables, st.Where)
	return err
}

// selectList binds what a SELECT returns: the output columns, their
// aggregates, the ORDER BY keys and the LIMIT.
func (b *binder) selectList(p *boundPlan, st *SelectStmt) error {
	agg := false
	for _, sc := range st.Cols {
		agg = agg || sc.Agg != ""
	}
	for _, sc := range st.Cols {
		if agg {
			if sc.Agg == "" {
				return fmt.Errorf("sqldb: mixing aggregates and plain columns requires GROUP BY (unsupported)")
			}
			p.aggs = append(p.aggs, sc.Agg)
		}
		switch {
		case sc.Star:
			for i, t := range b.tables {
				for ci, c := range t.cols {
					p.cols = append(p.cols, c.Name)
					p.proj = append(p.proj, colAt{b.level(i), ci})
				}
			}
			continue
		case sc.Col.Col == "": // COUNT(*)
			p.cols = append(p.cols, sc.Agg+"(*)")
			p.proj = append(p.proj, colAt{level: -1})
			continue
		case sc.Agg != "":
			p.cols = append(p.cols, sc.Agg+"("+sc.Col.Col+")")
		default:
			p.cols = append(p.cols, sc.Col.Col)
		}
		at, err := b.resolve(sc.Col)
		if err != nil {
			return fmt.Errorf("sqldb: unknown column %s", sc.Col.Col)
		}
		p.proj = append(p.proj, at)
	}
	for _, ok := range st.OrderBy {
		at, err := b.resolve(ok.Col)
		if err != nil {
			return fmt.Errorf("sqldb: unknown ORDER BY column %s", ok.Col.Col)
		}
		p.orderBy = append(p.orderBy, orderCol{at, ok.Desc})
	}
	p.limit = st.Limit
	if agg {
		// Aggregates fold every row into one: ORDER BY and LIMIT do not
		// apply.
		p.orderBy, p.limit = nil, -1
	}
	return nil
}

func (db *DB) bindInsert(p *boundPlan, st *InsertStmt) error {
	p.kind = kindInsert
	// Slot allocation and index insertion are structural.
	p.latchX = true
	if _, err := db.bindTarget(p, st.Table, nil); err != nil {
		return err
	}
	t := p.tables[0]
	if len(st.Cols) == 0 {
		if len(st.Vals) != len(t.cols) {
			return fmt.Errorf("sqldb: INSERT into %s: want %d values, got %d", t.name, len(t.cols), len(st.Vals))
		}
		for i := range st.Vals {
			p.valCols = append(p.valCols, i)
		}
	} else {
		if len(st.Cols) != len(st.Vals) {
			return fmt.Errorf("sqldb: INSERT column/value count mismatch")
		}
		for _, cn := range st.Cols {
			ci, ok := t.colIdx[cn]
			if !ok {
				return fmt.Errorf("sqldb: no column %s in %s", cn, t.name)
			}
			p.valCols = append(p.valCols, ci)
		}
	}
	// Values see no row: a column reference in VALUES does not resolve.
	b := &binder{}
	for _, e := range st.Vals {
		be, err := b.expr(e)
		if err != nil {
			return err
		}
		p.vals = append(p.vals, be)
	}
	return nil
}

func (db *DB) bindUpdate(p *boundPlan, st *UpdateStmt) error {
	p.kind = kindUpdate
	b, err := db.bindTarget(p, st.Table, st.Where)
	if err != nil {
		return err
	}
	t := p.tables[0]
	for _, set := range st.Sets {
		ci, ok := t.colIdx[set.Col]
		if !ok {
			return fmt.Errorf("sqldb: no column %s in %s", set.Col, t.name)
		}
		be, err := b.expr(set.Expr)
		if err != nil {
			return err
		}
		p.sets = append(p.sets, boundSet{col: ci, typ: t.cols[ci].Type, expr: be})
	}
	t.latch.RLock()
	for _, set := range p.sets {
		p.latchX = p.latchX || isIndexedCol(t, set.col)
	}
	t.latch.RUnlock()
	return nil
}

// isIndexedCol reports whether column ci of t is part of any index.
// Caller holds t.latch in at least read mode.
func isIndexedCol(t *Table, ci int) bool {
	if slices.Contains(t.pkCols, ci) {
		return true
	}
	return slices.ContainsFunc(t.idxs, func(ix *index) bool { return slices.Contains(ix.cols, ci) })
}

// latchOrder returns the distinct tables of ts in latch acquisition
// order.
func latchOrder(ts []*Table) []*Table {
	out := make([]*Table, 0, len(ts))
	for _, t := range ts {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	sortTables(out)
	return out
}
