package compile

import (
	"fmt"

	"pyxis/internal/pdg"
	"pyxis/internal/pyxil"
	"pyxis/internal/source"
	"pyxis/internal/val"
)

// Option configures Compile.
type Option func(*compileOpts)

type compileOpts struct{ noVerify bool }

// NoVerify disables the post-compile verifier for one compilation.
// Benches that compile in a hot loop and cmd/pyxisc -verify (which
// collects the findings instead of failing the compile) use it.
func NoVerify() Option { return func(o *compileOpts) { o.noVerify = true } }

// verifier is the registered whole-program checker. internal/verify
// installs itself here from init — a direct import would cycle, since
// the verifier is written against this package's types.
var verifier func(*Program) error

// RegisterVerifier installs the checker Compile runs by default on
// every compiled program (unless NoVerify is passed).
func RegisterVerifier(fn func(*Program) error) { verifier = fn }

// Compile lowers a PyxIL program into execution blocks.
func Compile(p *pyxil.Program, opts ...Option) (*Program, error) {
	var o compileOpts
	for _, opt := range opts {
		opt(&o)
	}
	c := &compiler{
		px:     p,
		prog:   &Program{Classes: map[string]*ClassInfo{}, Methods: map[string]*MethodInfo{}},
		sqlIDs: map[string]int32{},
	}
	// Split every class into APP and DB parts (Fig. 6).
	for _, cl := range p.Src.Classes {
		ci := &ClassInfo{Name: cl.Name}
		for _, f := range cl.Fields {
			loc := p.FieldLoc(f)
			fr := &FieldRef{Class: ci, Name: f.Name, Loc: loc, Type: f.Type}
			if loc == pdg.DB {
				fr.PartIdx = ci.NumDB
				ci.NumDB++
			} else {
				fr.Loc = pdg.App
				fr.PartIdx = ci.NumApp
				ci.NumApp++
			}
			ci.Fields = append(ci.Fields, fr)
		}
		c.prog.Classes[cl.Name] = ci
	}
	// Method shells first so calls can reference them.
	for _, cl := range p.Src.Classes {
		ci := c.prog.Classes[cl.Name]
		for _, m := range cl.Methods {
			mi := &MethodInfo{
				QName: m.QName(), Name: m.Name, Class: ci, Ret: m.Ret,
				IsEntryPoint: m.Entry,
			}
			for _, prm := range m.Params {
				mi.Params = append(mi.Params, prm.Type)
			}
			if m.IsCtor {
				ci.Ctor = mi
			}
			mi.Idx = len(c.prog.MethodList)
			c.prog.Methods[m.QName()] = mi
			c.prog.MethodList = append(c.prog.MethodList, mi)
		}
	}
	for _, cl := range p.Src.Classes {
		for _, m := range cl.Methods {
			if err := c.compileMethod(m); err != nil {
				return nil, err
			}
		}
	}
	if !o.noVerify && verifier != nil {
		if err := verifier(c.prog); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	return c.prog, nil
}

type compiler struct {
	px     *pyxil.Program
	prog   *Program
	sqlIDs map[string]int32

	method  *source.Method
	info    *MethodInfo
	cur     *Block
	nslots  int
	curStmt source.NodeID // statement being compiled (sync-plan lookups)
	// pendingBreaks stacks, per enclosing loop, the blocks that end in
	// `break` and await patching to the loop's exit block.
	pendingBreaks [][]*Block
}

func (c *compiler) newBlock(loc pdg.Loc) *Block {
	if loc == pdg.Unpinned {
		loc = pdg.App
	}
	b := &Block{ID: BlockID(len(c.prog.Blocks)), Loc: loc, Term: Term{Kind: TRet, Val: -1}}
	c.prog.Blocks = append(c.prog.Blocks, b)
	return b
}

func (c *compiler) temp() int {
	s := c.nslots
	c.nslots++
	return s
}

// slotOf maps a source local to its frame slot (0 is the receiver).
func slotOf(l *source.Local) int { return l.Slot + 1 }

func (c *compiler) emit(in Instr) { c.cur.Code = append(c.cur.Code, in) }

// ensureLoc switches the current block to the given placement,
// inserting a control transfer boundary if needed.
func (c *compiler) ensureLoc(loc pdg.Loc) {
	if loc == pdg.Unpinned {
		loc = pdg.App
	}
	if c.cur.Loc == loc {
		return
	}
	next := c.newBlock(loc)
	c.cur.Term = Term{Kind: TGoto, Target: next.ID}
	c.cur = next
}

func (c *compiler) stmtLoc(s source.Stmt) pdg.Loc {
	loc := c.px.StmtLoc(s.ID())
	if loc == pdg.Unpinned {
		return pdg.App
	}
	return loc
}

func (c *compiler) compileMethod(m *source.Method) error {
	c.method = m
	mi := c.prog.Methods[m.QName()]
	c.info = mi
	c.nslots = 1 + len(m.Locals)

	entryLoc := c.px.Place.Of(m.EntryID)
	c.cur = c.newBlock(entryLoc)
	mi.Entry = c.cur.ID

	if err := c.block(m.Body); err != nil {
		return err
	}
	// Fall-through return (zero value).
	c.cur.Term = Term{Kind: TRet, Val: -1}
	mi.NSlots = c.nslots
	return nil
}

func (c *compiler) block(b *source.Block) error {
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s source.Stmt) error {
	loc := c.stmtLoc(s)
	c.ensureLoc(loc)
	prev := c.curStmt
	c.curStmt = s.ID()
	defer func() { c.curStmt = prev }()

	switch st := s.(type) {
	case *source.DeclStmt:
		dst := slotOf(st.Local)
		if st.Init != nil {
			src, err := c.expr(st.Init, loc)
			if err != nil {
				return err
			}
			c.ensureLoc(loc)
			c.emit(Instr{Op: OpMove, A: dst, B: src})
		} else {
			c.emit(Instr{Op: OpConst, A: dst, Lit: st.Local.Type.Zero()})
		}
		c.maybeSendDef(s, dst)
		return nil

	case *source.AssignStmt:
		return c.assign(st, loc)

	case *source.ExprStmt:
		_, err := c.expr(st.X, loc)
		c.ensureLoc(loc)
		return err

	case *source.IfStmt:
		cond, err := c.expr(st.Cond, loc)
		if err != nil {
			return err
		}
		c.ensureLoc(loc)
		condBlock := c.cur
		thenB := c.newBlock(loc)
		c.cur = thenB
		if err := c.block(st.Then); err != nil {
			return err
		}
		thenEnd := c.cur
		var elseB, elseEnd *Block
		if st.Else != nil {
			elseB = c.newBlock(loc)
			c.cur = elseB
			if err := c.block(st.Else); err != nil {
				return err
			}
			elseEnd = c.cur
		}
		merge := c.newBlock(loc)
		condBlock.Term = Term{Kind: TIf, Cond: cond, Then: thenB.ID, Else: merge.ID}
		if elseB != nil {
			condBlock.Term.Else = elseB.ID
			elseEnd.Term = Term{Kind: TGoto, Target: merge.ID}
		}
		thenEnd.Term = Term{Kind: TGoto, Target: merge.ID}
		c.cur = merge
		return nil

	case *source.WhileStmt:
		head := c.newBlock(loc)
		c.cur.Term = Term{Kind: TGoto, Target: head.ID}
		c.cur = head
		cond, err := c.expr(st.Cond, loc)
		if err != nil {
			return err
		}
		c.ensureLoc(loc)
		condEnd := c.cur
		body := c.newBlock(loc)
		c.cur = body
		breakFixups := c.beginLoop()
		if err := c.block(st.Body); err != nil {
			return err
		}
		c.cur.Term = Term{Kind: TGoto, Target: head.ID}
		exit := c.newBlock(loc)
		condEnd.Term = Term{Kind: TIf, Cond: cond, Then: body.ID, Else: exit.ID}
		c.endLoop(breakFixups, exit.ID)
		c.cur = exit
		return nil

	case *source.ForEachStmt:
		// Desugar: idx = 0; arr = <expr>; while (idx < len(arr)) { var = arr[idx]; idx++; body }
		arrSlot, err := c.expr(st.Arr, loc)
		if err != nil {
			return err
		}
		c.ensureLoc(loc)
		arrTmp := c.temp()
		c.emit(Instr{Op: OpMove, A: arrTmp, B: arrSlot})
		idx := c.temp()
		c.emit(Instr{Op: OpConst, A: idx, Lit: val.IntV(0)})

		head := c.newBlock(loc)
		c.cur.Term = Term{Kind: TGoto, Target: head.ID}
		c.cur = head
		lenSlot := c.temp()
		c.emit(Instr{Op: OpLen, A: lenSlot, B: arrTmp})
		cond := c.temp()
		c.emit(Instr{Op: OpBin, A: cond, B: idx, C: lenSlot, Sub: uint8(source.OpLt)})
		condEnd := c.cur

		body := c.newBlock(loc)
		c.cur = body
		c.emit(Instr{Op: OpGetIdx, A: slotOf(st.Var), B: arrTmp, C: idx})
		if st.Var.Type.K == source.KDouble && st.Arr.Type().Elem.K == source.KInt {
			c.emit(Instr{Op: OpConv, A: slotOf(st.Var), B: slotOf(st.Var)})
		}
		one := c.temp()
		c.emit(Instr{Op: OpConst, A: one, Lit: val.IntV(1)})
		c.emit(Instr{Op: OpBin, A: idx, B: idx, C: one, Sub: uint8(source.OpAdd)})
		breakFixups := c.beginLoop()
		if err := c.block(st.Body); err != nil {
			return err
		}
		c.cur.Term = Term{Kind: TGoto, Target: head.ID}
		exit := c.newBlock(loc)
		condEnd.Term = Term{Kind: TIf, Cond: cond, Then: body.ID, Else: exit.ID}
		c.endLoop(breakFixups, exit.ID)
		c.cur = exit
		return nil

	case *source.ReturnStmt:
		ret := -1
		if st.X != nil {
			slot, err := c.expr(st.X, loc)
			if err != nil {
				return err
			}
			c.ensureLoc(loc)
			ret = slot
		}
		c.cur.Term = Term{Kind: TRet, Val: ret}
		// Dead continuation for any following (unreachable) code.
		c.cur = c.newBlock(loc)
		return nil

	case *source.BreakStmt:
		c.pendingBreaks[len(c.pendingBreaks)-1] = append(c.pendingBreaks[len(c.pendingBreaks)-1], c.cur)
		c.cur = c.newBlock(loc) // unreachable continuation
		return nil
	}
	return fmt.Errorf("compile: unhandled statement %T", s)
}

// Loop break bookkeeping: blocks ending in `break` get their TGoto
// patched once the loop exit block exists.
func (c *compiler) beginLoop() int {
	c.pendingBreaks = append(c.pendingBreaks, nil)
	return len(c.pendingBreaks) - 1
}

func (c *compiler) endLoop(level int, exit BlockID) {
	for _, b := range c.pendingBreaks[level] {
		b.Term = Term{Kind: TGoto, Target: exit}
	}
	c.pendingBreaks = c.pendingBreaks[:level]
}

// maybeSendDef ships the payload of a ref-typed definition if a remote
// use exists (pyxil sync plan).
func (c *compiler) maybeSendDef(s source.Stmt, slot int) {
	if c.px.SyncDefs[s.ID()] {
		c.emit(Instr{Op: OpSendNative, A: slot})
	}
}

func (c *compiler) assign(st *source.AssignStmt, loc pdg.Loc) error {
	switch lhs := st.LHS.(type) {
	case *source.VarExpr:
		dst := slotOf(lhs.Local)
		src, err := c.rhsValue(st, dst, loc)
		if err != nil {
			return err
		}
		c.ensureLoc(loc)
		c.emit(Instr{Op: OpMove, A: dst, B: src})
		c.maybeSendDef(st, dst)
		return nil

	case *source.FieldExpr:
		obj, err := c.expr(lhs.Recv, loc)
		if err != nil {
			return err
		}
		fr := c.fieldRef(lhs.Field)
		var src int
		if st.Op == source.AsnSet {
			src, err = c.expr(st.RHS, loc)
			if err != nil {
				return err
			}
		} else {
			old := c.temp()
			c.ensureLoc(loc)
			c.emit(Instr{Op: OpGetField, A: old, B: obj, Field: fr})
			rhs, err := c.expr(st.RHS, loc)
			if err != nil {
				return err
			}
			c.ensureLoc(loc)
			res := c.temp()
			c.emit(Instr{Op: OpBin, A: res, B: old, C: rhs, Sub: compoundOp(st.Op)})
			src = res
		}
		c.ensureLoc(loc)
		c.emit(Instr{Op: OpSetField, A: obj, B: src, Field: fr})
		for _, f := range c.px.SyncFields[st.ID()] {
			if f == lhs.Field {
				c.emit(Instr{Op: OpSendPart, A: obj, Sub: uint8(fr.Loc), Class: fr.Class})
			}
		}
		c.maybeSendDef(st, src)
		return nil

	case *source.IndexExpr:
		arr, err := c.expr(lhs.Arr, loc)
		if err != nil {
			return err
		}
		idx, err := c.expr(lhs.Idx, loc)
		if err != nil {
			return err
		}
		var src int
		if st.Op == source.AsnSet {
			src, err = c.expr(st.RHS, loc)
			if err != nil {
				return err
			}
		} else {
			old := c.temp()
			c.ensureLoc(loc)
			c.emit(Instr{Op: OpGetIdx, A: old, B: arr, C: idx})
			rhs, err := c.expr(st.RHS, loc)
			if err != nil {
				return err
			}
			c.ensureLoc(loc)
			res := c.temp()
			c.emit(Instr{Op: OpBin, A: res, B: old, C: rhs, Sub: compoundOp(st.Op)})
			src = res
		}
		c.ensureLoc(loc)
		c.emit(Instr{Op: OpSetIdx, A: arr, B: idx, C: src})
		if c.px.SyncArrays[st.ID()] {
			c.emit(Instr{Op: OpSendNative, A: arr})
		}
		return nil
	}
	return fmt.Errorf("compile: bad assignment target %T", st.LHS)
}

// rhsValue computes the value to store for an assignment with target
// slot dst (compound ops read the old value first).
func (c *compiler) rhsValue(st *source.AssignStmt, dst int, loc pdg.Loc) (int, error) {
	if st.Op == source.AsnSet {
		return c.expr(st.RHS, loc)
	}
	rhs, err := c.expr(st.RHS, loc)
	if err != nil {
		return 0, err
	}
	c.ensureLoc(loc)
	res := c.temp()
	c.emit(Instr{Op: OpBin, A: res, B: dst, C: rhs, Sub: compoundOp(st.Op)})
	return res, nil
}

func compoundOp(op source.AssignOp) uint8 {
	switch op {
	case source.AsnAdd:
		return uint8(source.OpAdd)
	case source.AsnSub:
		return uint8(source.OpSub)
	case source.AsnMul:
		return uint8(source.OpMul)
	default:
		return uint8(source.OpDiv)
	}
}

func (c *compiler) fieldRef(f *source.Field) *FieldRef {
	return c.prog.Classes[f.Class.Name].Fields[f.Index]
}

// expr compiles an expression at placement loc and returns the slot
// holding its value. Calls split the current block (CPS).
func (c *compiler) expr(e source.Expr, loc pdg.Loc) (int, error) {
	switch x := e.(type) {
	case nil:
		return -1, fmt.Errorf("compile: nil expression")

	case *source.Lit:
		dst := c.temp()
		c.ensureLoc(loc)
		var v val.Value
		switch x.T.K {
		case source.KInt:
			v = val.IntV(x.I)
		case source.KDouble:
			v = val.DoubleV(x.F)
		case source.KString:
			v = val.StrV(x.S)
		case source.KBool:
			v = val.BoolV(x.B)
		default:
			v = val.NullV()
		}
		c.emit(Instr{Op: OpConst, A: dst, Lit: v})
		return dst, nil

	case *source.VarExpr:
		return slotOf(x.Local), nil

	case *source.ThisExpr:
		return 0, nil

	case *source.ConvExpr:
		src, err := c.expr(x.X, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpConv, A: dst, B: src})
		return dst, nil

	case *source.FieldExpr:
		obj, err := c.expr(x.Recv, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpGetField, A: dst, B: obj, Field: c.fieldRef(x.Field)})
		return dst, nil

	case *source.IndexExpr:
		arr, err := c.expr(x.Arr, loc)
		if err != nil {
			return 0, err
		}
		idx, err := c.expr(x.Idx, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpGetIdx, A: dst, B: arr, C: idx})
		return dst, nil

	case *source.UnaryExpr:
		src, err := c.expr(x.X, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpUn, A: dst, B: src, Sub: uint8(x.Op)})
		return dst, nil

	case *source.BinaryExpr:
		if x.Op == source.OpAnd || x.Op == source.OpOr {
			return c.shortCircuit(x, loc)
		}
		l, err := c.expr(x.L, loc)
		if err != nil {
			return 0, err
		}
		r, err := c.expr(x.R, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpBin, A: dst, B: l, C: r, Sub: uint8(x.Op)})
		return dst, nil

	case *source.CallExpr:
		thisSlot := 0
		if x.Recv != nil {
			s, err := c.expr(x.Recv, loc)
			if err != nil {
				return 0, err
			}
			thisSlot = s
		}
		args := []int{thisSlot}
		for _, a := range x.Args {
			s, err := c.expr(a, loc)
			if err != nil {
				return 0, err
			}
			args = append(args, s)
		}
		c.ensureLoc(loc)
		dst := c.temp()
		cont := c.newBlock(loc)
		c.cur.Term = Term{Kind: TCall, Method: c.prog.Methods[x.Method.QName()],
			Args: args, RetSlot: dst, Cont: cont.ID}
		c.cur = cont
		return dst, nil

	case *source.NewObjectExpr:
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpNewObj, A: dst, Class: c.prog.Classes[x.Class.Name]})
		if x.Ctor != nil {
			args := []int{dst}
			for _, a := range x.Args {
				s, err := c.expr(a, loc)
				if err != nil {
					return 0, err
				}
				args = append(args, s)
			}
			c.ensureLoc(loc)
			ignore := c.temp()
			cont := c.newBlock(loc)
			c.cur.Term = Term{Kind: TCall, Method: c.prog.Methods[x.Ctor.QName()],
				Args: args, RetSlot: ignore, Cont: cont.ID}
			c.cur = cont
		}
		return dst, nil

	case *source.NewArrayExpr:
		n, err := c.expr(x.Len, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpNewArr, A: dst, B: n, Lit: x.Elem.Zero()})
		if c.px.SyncArrays[c.curStmt] {
			// A remote statement reads or writes this allocation site:
			// ship the (zeroed) contents so the remote copy exists.
			c.emit(Instr{Op: OpSendNative, A: dst})
		}
		return dst, nil

	case *source.BuiltinExpr:
		return c.builtin(x, loc)
	}
	return 0, fmt.Errorf("compile: unhandled expression %T", e)
}

func (c *compiler) shortCircuit(x *source.BinaryExpr, loc pdg.Loc) (int, error) {
	dst := c.temp()
	l, err := c.expr(x.L, loc)
	if err != nil {
		return 0, err
	}
	c.ensureLoc(loc)
	c.emit(Instr{Op: OpMove, A: dst, B: l})
	condBlock := c.cur
	evalR := c.newBlock(loc)
	c.cur = evalR
	r, err := c.expr(x.R, loc)
	if err != nil {
		return 0, err
	}
	c.ensureLoc(loc)
	c.emit(Instr{Op: OpMove, A: dst, B: r})
	evalREnd := c.cur
	merge := c.newBlock(loc)
	evalREnd.Term = Term{Kind: TGoto, Target: merge.ID}
	if x.Op == source.OpAnd {
		condBlock.Term = Term{Kind: TIf, Cond: dst, Then: evalR.ID, Else: merge.ID}
	} else {
		condBlock.Term = Term{Kind: TIf, Cond: dst, Then: merge.ID, Else: evalR.ID}
	}
	c.cur = merge
	return dst, nil
}

func (c *compiler) builtin(x *source.BuiltinExpr, loc pdg.Loc) (int, error) {
	evalArgs := func(from int) ([]int, error) {
		var out []int
		for _, a := range x.Args[from:] {
			s, err := c.expr(a, loc)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}

	switch x.B {
	case source.BQuery, source.BUpdate:
		args, err := evalArgs(1)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		op := OpDBQuery
		if x.B == source.BUpdate {
			op = OpDBExec
		}
		sql := x.SQLText()
		c.emit(Instr{Op: op, A: dst, SQL: sql, SQLID: c.internSQL(sql), Args: args})
		if op == OpDBQuery && c.px.SyncArrays[c.curStmt] {
			c.emit(Instr{Op: OpSendNative, A: dst})
		}
		return dst, nil

	case source.BBegin, source.BCommit, source.BRollback:
		c.ensureLoc(loc)
		op := OpDBBegin
		if x.B == source.BCommit {
			op = OpDBCommit
		} else if x.B == source.BRollback {
			op = OpDBRollback
		}
		c.emit(Instr{Op: op})
		return c.zeroSlot(loc), nil

	case source.BPrint:
		args, err := evalArgs(0)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		c.emit(Instr{Op: OpPrint, Args: args})
		return c.zeroSlot(loc), nil

	case source.BSha1, source.BStr:
		src, err := c.expr(x.Args[0], loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		op := OpSha1
		if x.B == source.BStr {
			op = OpStr
		}
		c.emit(Instr{Op: op, A: dst, B: src})
		return dst, nil

	case source.BRows:
		tbl, err := c.expr(x.Recv, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpTblRows, A: dst, B: tbl})
		return dst, nil

	case source.BGetInt, source.BGetDouble, source.BGetString:
		tbl, err := c.expr(x.Recv, loc)
		if err != nil {
			return 0, err
		}
		row, err := c.expr(x.Args[0], loc)
		if err != nil {
			return 0, err
		}
		col, err := c.expr(x.Args[1], loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpTblGet, A: dst, B: tbl, C: row, Args: []int{col}, Sub: uint8(x.B)})
		return dst, nil

	case source.BLen:
		arr, err := c.expr(x.Recv, loc)
		if err != nil {
			return 0, err
		}
		c.ensureLoc(loc)
		dst := c.temp()
		c.emit(Instr{Op: OpLen, A: dst, B: arr})
		return dst, nil
	}
	return 0, fmt.Errorf("compile: unhandled builtin %v", x.B)
}

// internSQL numbers a distinct SQL string into the program-wide
// statement table (same program on both peers ⇒ same numbering).
func (c *compiler) internSQL(sql string) int32 {
	if id, ok := c.sqlIDs[sql]; ok {
		return id
	}
	id := int32(len(c.prog.SQLTable))
	c.prog.SQLTable = append(c.prog.SQLTable, sql)
	c.sqlIDs[sql] = id
	return id
}

func (c *compiler) zeroSlot(loc pdg.Loc) int {
	c.ensureLoc(loc)
	dst := c.temp()
	c.emit(Instr{Op: OpConst, A: dst, Lit: val.NullV()})
	return dst
}
