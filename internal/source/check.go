package source

import "fmt"

// Check resolves names and types in a parsed program, rewrites
// sugar (table accessors, array .length, implicit int→double
// conversions), assigns frame slots to locals, and populates the
// program's NodeID indexes. It must be called exactly once per parse.
//
// A table is call-scoped by construction: it may be the type of a
// local, a parameter or a return value, never of a field or an array
// element. A table reference can then sit only in a frame slot, which
// is what lets the runtime free a query result once no live slot names
// it (runtime.Session.sweepTables).
func Check(prog *Program) error {
	c := &checker{prog: prog}
	prog.Stmts = map[NodeID]Stmt{}
	prog.Fields = map[NodeID]*Field{}
	prog.MethodEntries = map[NodeID]*Method{}

	// Resolve field types and register field nodes first so methods in
	// any class can reference fields of any other class.
	for _, cl := range prog.Classes {
		for _, f := range cl.Fields {
			t, err := c.resolveType(f.Type, f.Pos)
			if err != nil {
				return err
			}
			if t.K == KVoid {
				return fmt.Errorf("%s: field %s cannot be void", f.Pos, f.QName())
			}
			if t.K == KTable {
				return fmt.Errorf("%s: field %s cannot be a table: %s", f.Pos, f.QName(), tableScope)
			}
			f.Type = t
			prog.Fields[f.ID] = f
		}
		for _, m := range cl.Methods {
			rt, err := c.resolveType(m.Ret, m.Pos)
			if err != nil {
				return err
			}
			m.Ret = rt
			for _, p := range m.Params {
				pt, err := c.resolveType(p.Type, p.Pos)
				if err != nil {
					return err
				}
				if pt.K == KVoid {
					return fmt.Errorf("%s: parameter %s cannot be void", p.Pos, p.Name)
				}
				p.Type = pt
			}
			prog.MethodEntries[m.EntryID] = m
		}
	}

	for _, cl := range prog.Classes {
		for _, m := range cl.Methods {
			if err := c.checkMethod(m); err != nil {
				return err
			}
		}
	}
	return nil
}

const tableScope = "a query result is held by a local, a parameter or a return value only, and is freed when no live one names it"

type checker struct {
	prog   *Program
	method *Method
	scopes []map[string]*Local
	loops  int
}

func (c *checker) resolveType(t Type, pos Pos) (Type, error) {
	switch t.K {
	case KClass:
		real := c.prog.Class(t.Class.Name)
		if real == nil {
			return Type{}, fmt.Errorf("%s: unknown class %s", pos, t.Class.Name)
		}
		return ClassT(real), nil
	case KArray:
		e, err := c.resolveType(*t.Elem, pos)
		if err != nil {
			return Type{}, err
		}
		if e.K == KTable {
			return Type{}, fmt.Errorf("%s: table cannot be an array element type: %s", pos, tableScope)
		}
		return ArrayT(e), nil
	}
	return t, nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Local{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(l *Local, pos Pos) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[l.Name]; dup {
		return fmt.Errorf("%s: %s redeclared in this scope", pos, l.Name)
	}
	if l.Name == "db" || l.Name == "sys" {
		return fmt.Errorf("%s: %q is a reserved name", pos, l.Name)
	}
	top[l.Name] = l
	l.Slot = len(c.method.Locals)
	c.method.Locals = append(c.method.Locals, l)
	return nil
}

func (c *checker) lookup(name string) *Local {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if l, ok := c.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (c *checker) checkMethod(m *Method) error {
	c.method = m
	c.scopes = nil
	c.loops = 0
	m.Locals = nil
	c.pushScope()
	defer c.popScope()
	for _, p := range m.Params {
		if err := c.declare(p, p.Pos); err != nil {
			return err
		}
	}
	if m.Entry {
		if m.IsCtor {
			return fmt.Errorf("%s: constructor %s cannot be an entry point", m.Pos, m.QName())
		}
		switch m.Ret.K {
		case KVoid, KInt, KDouble, KBool, KString:
		default:
			return fmt.Errorf("%s: entry method %s must return a scalar or void (got %s)",
				m.Pos, m.QName(), m.Ret)
		}
		for _, p := range m.Params {
			switch p.Type.K {
			case KInt, KDouble, KBool, KString:
			default:
				return fmt.Errorf("%s: entry method %s parameter %s must be scalar (got %s)",
					m.Pos, m.QName(), p.Name, p.Type)
			}
		}
	}
	return c.checkBlock(m.Body)
}

func (c *checker) checkBlock(b *Block) error {
	c.pushScope()
	defer c.popScope()
	for i, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
		_ = i
	}
	return nil
}

func (c *checker) register(s Stmt) { c.prog.Stmts[s.ID()] = s }

func (c *checker) checkStmt(s Stmt) error {
	c.register(s)
	switch st := s.(type) {
	case *DeclStmt:
		t, err := c.resolveType(st.Local.Type, st.Pos)
		if err != nil {
			return err
		}
		if t.K == KVoid {
			return fmt.Errorf("%s: variable %s cannot be void", st.Pos, st.Local.Name)
		}
		st.Local.Type = t
		if st.Init != nil {
			init, it, err := c.checkExpr(st.Init)
			if err != nil {
				return err
			}
			st.Init, err = c.coerce(init, it, t, st.Pos)
			if err != nil {
				return err
			}
		}
		return c.declare(st.Local, st.Pos)

	case *AssignStmt:
		lhs, lt, err := c.checkExpr(st.LHS)
		if err != nil {
			return err
		}
		switch lhs.(type) {
		case *VarExpr, *FieldExpr, *IndexExpr:
		default:
			return fmt.Errorf("%s: invalid assignment target", st.Pos)
		}
		st.LHS = lhs
		rhs, rt, err := c.checkExpr(st.RHS)
		if err != nil {
			return err
		}
		if st.Op != AsnSet {
			// Compound ops: numeric, or string += string.
			if lt.K == KString && st.Op == AsnAdd {
				if rt.K != KString {
					return fmt.Errorf("%s: string += requires string operand, got %s", st.Pos, rt)
				}
			} else if !lt.IsNumeric() || !rt.IsNumeric() {
				return fmt.Errorf("%s: operator %s requires numeric operands (%s, %s)", st.Pos, st.Op, lt, rt)
			}
		}
		st.RHS, err = c.coerce(rhs, rt, lt, st.Pos)
		return err

	case *ExprStmt:
		x, _, err := c.checkExpr(st.X)
		if err != nil {
			return err
		}
		switch x.(type) {
		case *CallExpr, *BuiltinExpr, *NewObjectExpr:
		default:
			return fmt.Errorf("%s: expression statement must be a call", st.Pos)
		}
		st.X = x
		return nil

	case *IfStmt:
		cond, ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.K != KBool {
			return fmt.Errorf("%s: if condition must be bool, got %s", st.Pos, ct)
		}
		st.Cond = cond
		if err := c.checkBlock(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkBlock(st.Else)
		}
		return nil

	case *WhileStmt:
		cond, ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.K != KBool {
			return fmt.Errorf("%s: while condition must be bool, got %s", st.Pos, ct)
		}
		st.Cond = cond
		c.loops++
		defer func() { c.loops-- }()
		return c.checkBlock(st.Body)

	case *ForEachStmt:
		arr, at, err := c.checkExpr(st.Arr)
		if err != nil {
			return err
		}
		if at.K != KArray {
			return fmt.Errorf("%s: foreach requires an array, got %s", st.Pos, at)
		}
		st.Arr = arr
		vt, err := c.resolveType(st.Var.Type, st.Pos)
		if err != nil {
			return err
		}
		st.Var.Type = vt
		if !vt.AssignableFrom(*at.Elem) {
			return fmt.Errorf("%s: cannot iterate %s with variable of type %s", st.Pos, at, vt)
		}
		c.pushScope()
		defer c.popScope()
		if err := c.declare(st.Var, st.Pos); err != nil {
			return err
		}
		c.loops++
		defer func() { c.loops-- }()
		return c.checkBlock(st.Body)

	case *ReturnStmt:
		if st.X == nil {
			if c.method.Ret.K != KVoid {
				return fmt.Errorf("%s: %s must return %s", st.Pos, c.method.QName(), c.method.Ret)
			}
			return nil
		}
		if c.method.Ret.K == KVoid {
			return fmt.Errorf("%s: void method %s returns a value", st.Pos, c.method.QName())
		}
		x, xt, err := c.checkExpr(st.X)
		if err != nil {
			return err
		}
		st.X, err = c.coerce(x, xt, c.method.Ret, st.Pos)
		return err

	case *BreakStmt:
		if c.loops == 0 {
			return fmt.Errorf("%s: break outside loop", st.Pos)
		}
		return nil
	}
	return fmt.Errorf("%s: unhandled statement %T", s.StmtPos(), s)
}

// coerce inserts an implicit int→double conversion when needed.
func (c *checker) coerce(e Expr, from, to Type, pos Pos) (Expr, error) {
	if to.AssignableFrom(from) {
		if to.K == KDouble && from.K == KInt {
			conv := &ConvExpr{X: e}
			conv.T = DoubleT()
			return conv, nil
		}
		return e, nil
	}
	return nil, fmt.Errorf("%s: cannot use %s as %s", pos, from, to)
}

var tableAccessors = map[string]Builtin{
	"rows": BRows, "getInt": BGetInt, "getDouble": BGetDouble, "getString": BGetString,
}

func (c *checker) checkExpr(e Expr) (Expr, Type, error) {
	switch x := e.(type) {
	case *Lit:
		return x, x.T, nil

	case *VarExpr:
		l := c.lookup(x.Name)
		if l == nil {
			// Unqualified field access: rewrite `f` to `this.f`.
			if f := c.method.Class.FieldByName(x.Name); f != nil {
				this := &ThisExpr{}
				this.T = ClassT(c.method.Class)
				fe := &FieldExpr{Recv: this, Field: f, Name: x.Name}
				fe.T = f.Type
				return fe, fe.T, nil
			}
			return nil, Type{}, fmt.Errorf("undefined variable %s in %s", x.Name, c.method.QName())
		}
		x.Local = l
		x.T = l.Type
		return x, x.T, nil

	case *ThisExpr:
		x.T = ClassT(c.method.Class)
		return x, x.T, nil

	case *ConvExpr:
		return x, x.T, nil

	case *FieldExpr:
		recv, rt, err := c.checkExpr(x.Recv)
		if err != nil {
			return nil, Type{}, err
		}
		x.Recv = recv
		if rt.K == KArray && x.Name == "length" {
			b := &BuiltinExpr{B: BLen, Recv: recv}
			b.T = IntT()
			return b, b.T, nil
		}
		if rt.K != KClass {
			return nil, Type{}, fmt.Errorf("field access .%s on non-object type %s", x.Name, rt)
		}
		f := rt.Class.FieldByName(x.Name)
		if f == nil {
			return nil, Type{}, fmt.Errorf("class %s has no field %s", rt.Class.Name, x.Name)
		}
		x.Field = f
		x.T = f.Type
		return x, x.T, nil

	case *IndexExpr:
		arr, at, err := c.checkExpr(x.Arr)
		if err != nil {
			return nil, Type{}, err
		}
		if at.K != KArray {
			return nil, Type{}, fmt.Errorf("indexing non-array type %s", at)
		}
		idx, it, err := c.checkExpr(x.Idx)
		if err != nil {
			return nil, Type{}, err
		}
		if it.K != KInt {
			return nil, Type{}, fmt.Errorf("array index must be int, got %s", it)
		}
		x.Arr, x.Idx = arr, idx
		x.T = *at.Elem
		return x, x.T, nil

	case *UnaryExpr:
		sub, st, err := c.checkExpr(x.X)
		if err != nil {
			return nil, Type{}, err
		}
		x.X = sub
		switch x.Op {
		case OpNeg:
			if !st.IsNumeric() {
				return nil, Type{}, fmt.Errorf("unary - requires numeric operand, got %s", st)
			}
			x.T = st
		case OpNot:
			if st.K != KBool {
				return nil, Type{}, fmt.Errorf("! requires bool operand, got %s", st)
			}
			x.T = BoolT()
		}
		return x, x.T, nil

	case *BinaryExpr:
		return c.checkBinary(x)

	case *CallExpr:
		return c.checkCall(x)

	case *BuiltinExpr:
		return c.checkBuiltin(x)

	case *NewObjectExpr:
		cl := c.prog.Class(x.Class.Name)
		if cl == nil {
			return nil, Type{}, fmt.Errorf("unknown class %s", x.Class.Name)
		}
		x.Class = cl
		x.Ctor = cl.MethodByName(cl.Name)
		var params []*Local
		if x.Ctor != nil {
			params = x.Ctor.Params
		}
		if len(x.Args) != len(params) {
			return nil, Type{}, fmt.Errorf("new %s: want %d constructor arguments, got %d", cl.Name, len(params), len(x.Args))
		}
		for i, a := range x.Args {
			ax, at, err := c.checkExpr(a)
			if err != nil {
				return nil, Type{}, err
			}
			x.Args[i], err = c.coerce(ax, at, params[i].Type, Pos{})
			if err != nil {
				return nil, Type{}, fmt.Errorf("new %s argument %d: %v", cl.Name, i+1, err)
			}
		}
		x.T = ClassT(cl)
		return x, x.T, nil

	case *NewArrayExpr:
		et, err := c.resolveType(x.Elem, Pos{})
		if err != nil {
			return nil, Type{}, err
		}
		x.Elem = et
		n, nt, err := c.checkExpr(x.Len)
		if err != nil {
			return nil, Type{}, err
		}
		if nt.K != KInt {
			return nil, Type{}, fmt.Errorf("array length must be int, got %s", nt)
		}
		x.Len = n
		x.T = ArrayT(et)
		return x, x.T, nil
	}
	return nil, Type{}, fmt.Errorf("unhandled expression %T", e)
}

func (c *checker) checkBinary(x *BinaryExpr) (Expr, Type, error) {
	l, lt, err := c.checkExpr(x.L)
	if err != nil {
		return nil, Type{}, err
	}
	r, rt, err := c.checkExpr(x.R)
	if err != nil {
		return nil, Type{}, err
	}
	x.L, x.R = l, r
	widen := func() {
		if lt.K == KInt && rt.K == KDouble {
			conv := &ConvExpr{X: x.L}
			conv.T = DoubleT()
			x.L = conv
			lt = DoubleT()
		}
		if rt.K == KInt && lt.K == KDouble {
			conv := &ConvExpr{X: x.R}
			conv.T = DoubleT()
			x.R = conv
			rt = DoubleT()
		}
	}
	switch x.Op {
	case OpAdd:
		if lt.K == KString && rt.K == KString {
			x.T = StringT()
			return x, x.T, nil
		}
		fallthrough
	case OpSub, OpMul, OpDiv:
		if !lt.IsNumeric() || !rt.IsNumeric() {
			return nil, Type{}, fmt.Errorf("operator %s requires numeric operands (%s, %s)", x.Op, lt, rt)
		}
		widen()
		x.T = lt
		return x, x.T, nil
	case OpMod:
		if lt.K != KInt || rt.K != KInt {
			return nil, Type{}, fmt.Errorf("%% requires int operands (%s, %s)", lt, rt)
		}
		x.T = IntT()
		return x, x.T, nil
	case OpLt, OpLe, OpGt, OpGe:
		if (lt.IsNumeric() && rt.IsNumeric()) || (lt.K == KString && rt.K == KString) {
			widen()
			x.T = BoolT()
			return x, x.T, nil
		}
		return nil, Type{}, fmt.Errorf("operator %s cannot compare %s and %s", x.Op, lt, rt)
	case OpEq, OpNe:
		ok := (lt.IsNumeric() && rt.IsNumeric()) ||
			(lt.K == rt.K && (lt.K == KString || lt.K == KBool)) ||
			(lt.IsRef() && rt.K == KNull) || (rt.IsRef() && lt.K == KNull) ||
			(lt.K == KClass && lt.Equal(rt)) || (lt.K == KArray && lt.Equal(rt))
		if !ok {
			return nil, Type{}, fmt.Errorf("operator %s cannot compare %s and %s", x.Op, lt, rt)
		}
		widen()
		x.T = BoolT()
		return x, x.T, nil
	case OpAnd, OpOr:
		if lt.K != KBool || rt.K != KBool {
			return nil, Type{}, fmt.Errorf("operator %s requires bool operands (%s, %s)", x.Op, lt, rt)
		}
		x.T = BoolT()
		return x, x.T, nil
	}
	return nil, Type{}, fmt.Errorf("unknown binary operator")
}

func (c *checker) checkCall(x *CallExpr) (Expr, Type, error) {
	var recvClass *Class
	if x.Recv == nil {
		recvClass = c.method.Class
	} else {
		recv, rt, err := c.checkExpr(x.Recv)
		if err != nil {
			return nil, Type{}, err
		}
		x.Recv = recv
		// Table accessor sugar: t.rows(), t.getInt(r,c), ...
		if rt.K == KTable {
			b, ok := tableAccessors[x.Name]
			if !ok {
				return nil, Type{}, fmt.Errorf("table has no method %s", x.Name)
			}
			be := &BuiltinExpr{B: b, Recv: recv, Args: x.Args}
			return c.checkBuiltin(be)
		}
		// String length: s.length().
		if rt.K == KString && x.Name == "length" && len(x.Args) == 0 {
			be := &BuiltinExpr{B: BLen, Recv: recv}
			be.T = IntT()
			return be, be.T, nil
		}
		if rt.K != KClass {
			return nil, Type{}, fmt.Errorf("method call .%s on non-object type %s", x.Name, rt)
		}
		recvClass = rt.Class
	}
	m := recvClass.MethodByName(x.Name)
	if m == nil {
		return nil, Type{}, fmt.Errorf("class %s has no method %s", recvClass.Name, x.Name)
	}
	if m.IsCtor {
		return nil, Type{}, fmt.Errorf("constructor %s cannot be called directly; use new %s(...)", m.QName(), recvClass.Name)
	}
	if len(x.Args) != len(m.Params) {
		return nil, Type{}, fmt.Errorf("call to %s: want %d arguments, got %d", m.QName(), len(m.Params), len(x.Args))
	}
	for i, a := range x.Args {
		ax, at, err := c.checkExpr(a)
		if err != nil {
			return nil, Type{}, err
		}
		x.Args[i], err = c.coerce(ax, at, m.Params[i].Type, Pos{})
		if err != nil {
			return nil, Type{}, fmt.Errorf("call to %s argument %d (%s): %v", m.QName(), i+1, m.Params[i].Name, err)
		}
	}
	x.Method = m
	x.T = m.Ret
	return x, x.T, nil
}

func (c *checker) checkBuiltin(x *BuiltinExpr) (Expr, Type, error) {
	checkArgs := func(want ...Type) error {
		if len(x.Args) != len(want) {
			return fmt.Errorf("%s: want %d arguments, got %d", x.B, len(want), len(x.Args))
		}
		for i, a := range x.Args {
			ax, at, err := c.checkExpr(a)
			if err != nil {
				return err
			}
			x.Args[i], err = c.coerce(ax, at, want[i], Pos{})
			if err != nil {
				return fmt.Errorf("%s argument %d: %v", x.B, i+1, err)
			}
		}
		return nil
	}

	switch x.B {
	case BQuery, BUpdate:
		if len(x.Args) == 0 {
			return nil, Type{}, fmt.Errorf("%s requires a SQL string argument", x.B)
		}
		sqlLit, ok := x.Args[0].(*Lit)
		if !ok || sqlLit.T.K != KString {
			return nil, Type{}, fmt.Errorf("%s: SQL text must be a string literal", x.B)
		}
		for i := 1; i < len(x.Args); i++ {
			ax, at, err := c.checkExpr(x.Args[i])
			if err != nil {
				return nil, Type{}, err
			}
			switch at.K {
			case KInt, KDouble, KBool, KString:
			default:
				return nil, Type{}, fmt.Errorf("%s parameter %d must be scalar, got %s", x.B, i, at)
			}
			x.Args[i] = ax
		}
		if x.B == BQuery {
			x.T = TableT()
		} else {
			x.T = IntT()
		}
		return x, x.T, nil

	case BBegin, BCommit, BRollback:
		if err := checkArgs(); err != nil {
			return nil, Type{}, err
		}
		x.T = VoidT()
		return x, x.T, nil

	case BPrint:
		for i, a := range x.Args {
			ax, _, err := c.checkExpr(a)
			if err != nil {
				return nil, Type{}, err
			}
			x.Args[i] = ax
		}
		x.T = VoidT()
		return x, x.T, nil

	case BSha1:
		if err := checkArgs(IntT()); err != nil {
			return nil, Type{}, err
		}
		x.T = IntT()
		return x, x.T, nil

	case BStr:
		if len(x.Args) != 1 {
			return nil, Type{}, fmt.Errorf("sys.str: want 1 argument")
		}
		ax, at, err := c.checkExpr(x.Args[0])
		if err != nil {
			return nil, Type{}, err
		}
		switch at.K {
		case KInt, KDouble, KBool, KString:
		default:
			return nil, Type{}, fmt.Errorf("sys.str: scalar argument required, got %s", at)
		}
		x.Args[0] = ax
		x.T = StringT()
		return x, x.T, nil

	case BRows:
		if err := checkArgs(); err != nil {
			return nil, Type{}, err
		}
		x.T = IntT()
		return x, x.T, nil

	case BGetInt, BGetDouble, BGetString:
		if err := checkArgs(IntT(), IntT()); err != nil {
			return nil, Type{}, err
		}
		switch x.B {
		case BGetInt:
			x.T = IntT()
		case BGetDouble:
			x.T = DoubleT()
		default:
			x.T = StringT()
		}
		return x, x.T, nil

	case BLen:
		x.T = IntT()
		return x, x.T, nil
	}
	return nil, Type{}, fmt.Errorf("unhandled builtin %v", x.B)
}
