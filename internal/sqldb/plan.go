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

// boundCond is one WHERE conjunct over bound expressions. ll and rl
// are the deepest join level each side reads (-1: none); only the
// access-path choice at bind time uses them.
type boundCond struct {
	op     CmpOp
	l, r   boundExpr
	ll, rl int
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
	// tree is the index to probe (nil: scan the whole table) with the
	// equality prefix key, in index column order. Key expressions read
	// only literals, parameters and rows of earlier levels.
	tree *btree
	key  []boundExpr
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

	// tables holds the FROM tables in join order (one entry for INSERT,
	// UPDATE and DELETE); latches is the same set deduplicated in latch
	// order, taken exclusively iff latchX. An UPDATE shares the latch
	// unless it sets an indexed column: a non-key update only swaps row
	// pointers, index maintenance is structural.
	tables  []*Table
	latches []*Table
	latchX  bool
	levels  []levelPlan

	// SELECT. cols is shared by every ResultSet the plan produces.
	cols    []string
	proj    []colAt
	aggs    []string // aggregate per output column; nil for a plain query
	orderBy []orderCol
	limit   int

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

// binder resolves names against the FROM list.
type binder struct {
	tables  []*Table
	aliases []string
}

// resolve finds the first FROM entry a column reference can mean.
func (b *binder) resolve(cr ColRef) (colAt, error) {
	for i, a := range b.aliases {
		if cr.Table != "" && cr.Table != a {
			continue
		}
		if ci, ok := b.tables[i].colIdx[cr.Col]; ok {
			return colAt{i, ci}, nil
		}
		if cr.Table != "" {
			return colAt{}, fmt.Errorf("sqldb: no column %s in %s", cr.Col, cr.Table)
		}
	}
	return colAt{}, fmt.Errorf("sqldb: unknown column %s", cr.Col)
}

// expr binds e and reports the deepest join level it reads (-1 when it
// reads no row at all).
func (b *binder) expr(e SQLExpr) (boundExpr, int, error) {
	switch x := e.(type) {
	case LitExpr:
		return boundExpr{op: opLit, v: x.V}, -1, nil
	case ParamExpr:
		return boundExpr{op: opParam, idx: x.Index}, -1, nil
	case ColRef:
		at, err := b.resolve(x)
		if err != nil {
			return boundExpr{}, 0, err
		}
		return boundExpr{op: opCol, level: at.level, idx: at.col}, at.level, nil
	case *ArithExpr:
		l, ll, err := b.expr(x.L)
		if err != nil {
			return boundExpr{}, 0, err
		}
		r, rl, err := b.expr(x.R)
		if err != nil {
			return boundExpr{}, 0, err
		}
		return boundExpr{op: opArith, arith: x.Op, l: &l, r: &r}, max(ll, rl), nil
	}
	return boundExpr{}, 0, fmt.Errorf("sqldb: cannot evaluate expression %T", e)
}

// levels distributes the WHERE conjuncts over the join levels — each
// filters at the level where its last column becomes bound — and picks
// every level's access path.
func (b *binder) levels(where []Cond) ([]levelPlan, error) {
	levels := make([]levelPlan, len(b.tables))
	for _, c := range where {
		l, ll, err := b.expr(c.L)
		if err != nil {
			return nil, err
		}
		r, rl, err := b.expr(c.R)
		if err != nil {
			return nil, err
		}
		at := max(ll, rl, 0)
		levels[at].conds = append(levels[at].conds, boundCond{op: c.Op, l: l, r: r, ll: ll, rl: rl})
	}
	for i, t := range b.tables {
		t.latch.RLock()
		choosePath(t, i, &levels[i])
		t.latch.RUnlock()
	}
	return levels, nil
}

// choosePath picks for one level the index (PK or secondary) with the
// longest equality-bound prefix. A conjunct qualifies when it equates
// a column of this level's table with an expression bound before the
// level: literals, parameters, rows of earlier levels. Caller holds
// t.latch in at least read mode (the index set is read).
func choosePath(t *Table, level int, lp *levelPlan) {
	eq := map[int]*boundExpr{} // column → expression it must equal
	for i := range lp.conds {
		c := &lp.conds[i]
		if c.op != CmpEq {
			continue
		}
		if c.l.op == opCol && c.l.level == level && c.rl < level {
			eq[c.l.idx] = &c.r
		} else if c.r.op == opCol && c.r.level == level && c.ll < level {
			eq[c.r.idx] = &c.l
		}
	}
	if len(eq) == 0 {
		return
	}
	consider := func(tree *btree, cols []int, unique bool) {
		n := 0
		for n < len(cols) && eq[cols[n]] != nil {
			n++
		}
		if n <= len(lp.key) {
			return
		}
		lp.tree, lp.key = tree, make([]boundExpr, n)
		for i := range lp.key {
			lp.key[i] = *eq[cols[i]]
		}
		lp.point = unique && n == len(cols)
	}
	consider(t.pk, t.pkCols, true)
	for _, ix := range t.idxs {
		consider(ix.tree, ix.cols, ix.unique)
	}
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
	t := db.lookupTable(table)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	p.tables = []*Table{t}
	b := &binder{tables: p.tables, aliases: []string{table}}
	var err error
	p.levels, err = b.levels(where)
	return b, err
}

func (db *DB) bindSelect(p *boundPlan, st *SelectStmt) error {
	p.kind = kindSelect
	p.limit = st.Limit
	b := &binder{}
	for _, tr := range st.Tables {
		t := db.lookupTable(tr.Table)
		if t == nil {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, tr.Table)
		}
		b.tables = append(b.tables, t)
		b.aliases = append(b.aliases, tr.Alias)
	}
	p.tables = b.tables

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
					p.proj = append(p.proj, colAt{i, ci})
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
	var err error
	p.levels, err = b.levels(st.Where)
	return err
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
		be, _, err := b.expr(e)
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
		be, _, err := b.expr(set.Expr)
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
