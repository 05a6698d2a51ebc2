// Package sqldb is an in-memory relational database engine: a SQL
// subset, B+tree indexes, two-phase-locking transactions with
// deadlock detection, and undo-log rollback. It stands in for the
// MySQL instance the Pyxis paper evaluated against; the benchmarks'
// every database access goes through it.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"

	"pyxis/internal/val"
)

// ColType is a column type.
type ColType uint8

const (
	CInt ColType = iota
	CDouble
	CString
	CBool
)

func (c ColType) String() string {
	switch c {
	case CInt:
		return "INT"
	case CDouble:
		return "DOUBLE"
	case CString:
		return "VARCHAR"
	case CBool:
		return "BOOL"
	}
	return "?"
}

// ---------------------------------------------------------------------------
// SQL AST
// ---------------------------------------------------------------------------

// SQLStmt is a parsed SQL statement. The DML statements embed a
// planCell — the plan their first execution binds (see plan.go) — so a
// statement is shared by pointer and never copied.
type SQLStmt interface{ sqlStmt() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type ColType
}

// CreateTableStmt creates a table. PK lists primary key column names.
type CreateTableStmt struct {
	Table string
	Cols  []ColumnDef
	PK    []string
}

// CreateIndexStmt creates a secondary index.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
}

// InsertStmt inserts one row.
type InsertStmt struct {
	planCell
	Table string
	Cols  []string // optional explicit column list
	Vals  []SQLExpr
}

// SelectStmt is a (possibly multi-table, possibly aggregate) query.
type SelectStmt struct {
	planCell
	Cols    []SelectCol
	Tables  []TableRef
	Where   []Cond
	OrderBy []OrderKey
	Limit   int // -1 = none
}

// SelectCol is one output column: a column reference or an aggregate.
type SelectCol struct {
	Star bool
	Agg  string // "", "COUNT", "SUM", "MIN", "MAX", "AVG"
	Col  ColRef // ignored for COUNT(*)
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table, Alias string
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  ColRef
	Desc bool
}

// UpdateStmt updates matching rows.
type UpdateStmt struct {
	planCell
	Table string
	Sets  []SetClause
	Where []Cond
}

// SetClause is `col = expr` in UPDATE.
type SetClause struct {
	Col  string
	Expr SQLExpr
}

// DeleteStmt deletes matching rows.
type DeleteStmt struct {
	planCell
	Table string
	Where []Cond
}

func (*CreateTableStmt) sqlStmt() {}
func (*CreateIndexStmt) sqlStmt() {}
func (*InsertStmt) sqlStmt()      {}
func (*SelectStmt) sqlStmt()      {}
func (*UpdateStmt) sqlStmt()      {}
func (*DeleteStmt) sqlStmt()      {}

// CmpOp is a comparison operator in WHERE.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpLike
)

// Cond is one conjunct of a WHERE clause: L op R.
type Cond struct {
	Op   CmpOp
	L, R SQLExpr
}

// SQLExpr is an expression: literal, ? parameter, column reference, or
// binary arithmetic (+,-,*) over those.
type SQLExpr interface{ sqlExpr() }

// LitExpr is a literal constant.
type LitExpr struct{ V val.Value }

// ParamExpr is the i-th `?` placeholder (0-based).
type ParamExpr struct{ Index int }

// ColRef references a column, optionally qualified (`t.col`).
type ColRef struct{ Table, Col string }

// ArithExpr is L op R where op is one of + - *.
type ArithExpr struct {
	Op   byte
	L, R SQLExpr
}

func (LitExpr) sqlExpr()    {}
func (ParamExpr) sqlExpr()  {}
func (ColRef) sqlExpr()     {}
func (*ArithExpr) sqlExpr() {}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

type sqlTok struct {
	kind byte // 'i' ident/keyword (upper-cased in text), 'n' number, 's' string, 'p' punct, 0 eof
	text string
}

func sqlLex(s string) ([]sqlTok, error) {
	var toks []sqlTok
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for {
				if j >= len(s) {
					return nil, fmt.Errorf("sql: unterminated string literal")
				}
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' { // '' escape
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(s[j])
				j++
			}
			toks = append(toks, sqlTok{'s', b.String()})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9'):
			j := i
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.') {
				j++
			}
			toks = append(toks, sqlTok{'n', s[i:j]})
			i = j
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' || s[j] >= '0' && s[j] <= '9') {
				j++
			}
			toks = append(toks, sqlTok{'i', strings.ToUpper(s[i:j])})
			i = j
		case c == '<' && i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '>'):
			toks = append(toks, sqlTok{'p', s[i : i+2]})
			i += 2
		case c == '>' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, sqlTok{'p', ">="})
			i += 2
		case c == '!' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, sqlTok{'p', "<>"})
			i += 2
		case strings.IndexByte("(),*=<>?+-.", c) >= 0:
			toks = append(toks, sqlTok{'p', string(c)})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q", string(c))
		}
	}
	toks = append(toks, sqlTok{0, ""})
	return toks, nil
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

type sqlParser struct {
	toks   []sqlTok
	pos    int
	params int
}

// ParseSQL parses one SQL statement.
func ParseSQL(s string) (SQLStmt, error) {
	toks, err := sqlLex(s)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, fmt.Errorf("sql: %v (in %q)", err, s)
	}
	if p.cur().kind != 0 {
		return nil, fmt.Errorf("sql: trailing input %q (in %q)", p.cur().text, s)
	}
	return st, nil
}

func (p *sqlParser) cur() sqlTok { return p.toks[p.pos] }
func (p *sqlParser) next() sqlTok {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *sqlParser) kw(word string) bool {
	if p.cur().kind == 'i' && p.cur().text == word {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) punct(s string) bool {
	if p.cur().kind == 'p' && p.cur().text == s {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("expected %s, found %q", word, p.cur().text)
	}
	return nil
}

func (p *sqlParser) expectPunct(s string) error {
	if !p.punct(s) {
		return fmt.Errorf("expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	if p.cur().kind != 'i' {
		return "", fmt.Errorf("expected identifier, found %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *sqlParser) parseStmt() (SQLStmt, error) {
	switch {
	case p.kw("CREATE"):
		if p.kw("TABLE") {
			return p.parseCreateTable()
		}
		unique := p.kw("UNIQUE")
		if p.kw("INDEX") {
			return p.parseCreateIndex(unique)
		}
		return nil, fmt.Errorf("expected TABLE or INDEX after CREATE")
	case p.kw("INSERT"):
		return p.parseInsert()
	case p.kw("SELECT"):
		return p.parseSelect()
	case p.kw("UPDATE"):
		return p.parseUpdate()
	case p.kw("DELETE"):
		return p.parseDelete()
	}
	return nil, fmt.Errorf("unsupported statement start %q", p.cur().text)
}

func (p *sqlParser) parseCreateTable() (SQLStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Table: name}
	for {
		if p.kw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.PK = append(st.PK, c)
				if !p.punct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ct, err := p.parseColType()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, ColumnDef{Name: col, Type: ct})
			if p.kw("PRIMARY") {
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				st.PK = append(st.PK, col)
			}
		}
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseColType() (ColType, error) {
	t, err := p.ident()
	if err != nil {
		return 0, err
	}
	switch t {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return CInt, nil
	case "DOUBLE", "FLOAT", "DECIMAL", "NUMERIC", "REAL":
		// DECIMAL(p,s) precision args are accepted and ignored.
		p.skipParenArgs()
		return CDouble, nil
	case "VARCHAR", "CHAR", "TEXT":
		p.skipParenArgs()
		return CString, nil
	case "BOOL", "BOOLEAN":
		return CBool, nil
	}
	return 0, fmt.Errorf("unknown column type %s", t)
}

func (p *sqlParser) skipParenArgs() {
	if !p.punct("(") {
		return
	}
	depth := 1
	for depth > 0 && p.cur().kind != 0 {
		t := p.next()
		if t.kind == 'p' {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
}

func (p *sqlParser) parseCreateIndex(unique bool) (SQLStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{Name: name, Table: tbl, Unique: unique}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, c)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseInsert() (SQLStmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: tbl}
	if p.punct("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if !p.punct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Vals = append(st.Vals, e)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseSelect() (SQLStmt, error) {
	st := &SelectStmt{Limit: -1}
	for {
		sc, err := p.parseSelectCol()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, sc)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr := TableRef{Table: tbl, Alias: tbl}
		if p.cur().kind == 'i' && !isSQLKeyword(p.cur().text) {
			tr.Alias = p.next().text
		}
		st.Tables = append(st.Tables, tr)
		if !p.punct(",") {
			break
		}
	}
	var err error
	st.Where, err = p.parseWhere()
	if err != nil {
		return nil, err
	}
	if p.kw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: cr}
			if p.kw("DESC") {
				key.Desc = true
			} else {
				p.kw("ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if !p.punct(",") {
				break
			}
		}
	}
	if p.kw("LIMIT") {
		if p.cur().kind != 'n' {
			return nil, fmt.Errorf("LIMIT requires a number")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	return st, nil
}

var sqlKeywords = map[string]bool{
	"FROM": true, "WHERE": true, "ORDER": true, "BY": true, "LIMIT": true,
	"AND": true, "SET": true, "VALUES": true, "INTO": true, "ON": true,
	"DESC": true, "ASC": true, "LIKE": true, "SELECT": true, "PRIMARY": true,
}

func isSQLKeyword(s string) bool { return sqlKeywords[s] }

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true}

func (p *sqlParser) parseSelectCol() (SelectCol, error) {
	if p.punct("*") {
		return SelectCol{Star: true}, nil
	}
	if p.cur().kind == 'i' && aggNames[p.cur().text] && p.toks[p.pos+1].kind == 'p' && p.toks[p.pos+1].text == "(" {
		agg := p.next().text
		p.next() // (
		sc := SelectCol{Agg: agg}
		if p.punct("*") {
			if agg != "COUNT" {
				return SelectCol{}, fmt.Errorf("%s(*) is not supported", agg)
			}
		} else {
			cr, err := p.parseColRef()
			if err != nil {
				return SelectCol{}, err
			}
			sc.Col = cr
		}
		if err := p.expectPunct(")"); err != nil {
			return SelectCol{}, err
		}
		return sc, nil
	}
	cr, err := p.parseColRef()
	if err != nil {
		return SelectCol{}, err
	}
	return SelectCol{Col: cr}, nil
}

func (p *sqlParser) parseColRef() (ColRef, error) {
	a, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.punct(".") {
		b, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: a, Col: b}, nil
	}
	return ColRef{Col: a}, nil
}

func (p *sqlParser) parseWhere() ([]Cond, error) {
	if !p.kw("WHERE") {
		return nil, nil
	}
	var conds []Cond
	for {
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
		if !p.kw("AND") {
			break
		}
	}
	return conds, nil
}

func (p *sqlParser) parseCond() (Cond, error) {
	l, err := p.parseExpr()
	if err != nil {
		return Cond{}, err
	}
	var op CmpOp
	switch {
	case p.punct("="):
		op = CmpEq
	case p.punct("<>"):
		op = CmpNe
	case p.punct("<="):
		op = CmpLe
	case p.punct(">="):
		op = CmpGe
	case p.punct("<"):
		op = CmpLt
	case p.punct(">"):
		op = CmpGt
	case p.kw("LIKE"):
		op = CmpLike
	default:
		return Cond{}, fmt.Errorf("expected comparison operator, found %q", p.cur().text)
	}
	r, err := p.parseExpr()
	if err != nil {
		return Cond{}, err
	}
	return Cond{Op: op, L: l, R: r}, nil
}

// parseExpr parses additive arithmetic over primaries.
func (p *sqlParser) parseExpr() (SQLExpr, error) {
	l, err := p.parseExprMul()
	if err != nil {
		return nil, err
	}
	for {
		var op byte
		switch {
		case p.punct("+"):
			op = '+'
		case p.punct("-"):
			op = '-'
		default:
			return l, nil
		}
		r, err := p.parseExprMul()
		if err != nil {
			return nil, err
		}
		l = &ArithExpr{Op: op, L: l, R: r}
	}
}

func (p *sqlParser) parseExprMul() (SQLExpr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.punct("*") {
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &ArithExpr{Op: '*', L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parsePrimary() (SQLExpr, error) {
	t := p.cur()
	switch t.kind {
	case 'n':
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, err
			}
			return LitExpr{val.DoubleV(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return LitExpr{val.IntV(i)}, nil
	case 's':
		p.next()
		return LitExpr{val.StrV(t.text)}, nil
	case 'p':
		if t.text == "?" {
			p.next()
			e := ParamExpr{Index: p.params}
			p.params++
			return e, nil
		}
		if t.text == "-" {
			p.next()
			sub, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			if l, ok := sub.(LitExpr); ok {
				v := l.V
				if v.K == val.Int {
					v.I = -v.I
				} else {
					v.F = -v.F
				}
				return LitExpr{v}, nil
			}
			return &ArithExpr{Op: '-', L: LitExpr{val.IntV(0)}, R: sub}, nil
		}
	case 'i':
		switch t.text {
		case "TRUE":
			p.next()
			return LitExpr{val.BoolV(true)}, nil
		case "FALSE":
			p.next()
			return LitExpr{val.BoolV(false)}, nil
		case "NULL":
			p.next()
			return LitExpr{val.NullV()}, nil
		}
		return p.parseColRefExpr()
	}
	return nil, fmt.Errorf("unexpected token %q in expression", t.text)
}

func (p *sqlParser) parseColRefExpr() (SQLExpr, error) {
	cr, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	return cr, nil
}

func (p *sqlParser) parseUpdate() (SQLStmt, error) {
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: tbl}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Col: col, Expr: e})
		if !p.punct(",") {
			break
		}
	}
	st.Where, err = p.parseWhere()
	return st, err
}

func (p *sqlParser) parseDelete() (SQLStmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: tbl}
	st.Where, err = p.parseWhere()
	return st, err
}
