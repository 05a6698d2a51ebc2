package verify

import "pyxis/internal/compile"

// structural checks control-flow well-formedness and table
// consistency: block IDs dense, every terminator valid with in-range
// targets, the Methods map and MethodList agreeing (including each
// MethodInfo.Idx, which the transfer codec ships instead of the
// qname), call arities, and every SQLID resolving to its instruction's
// SQL text in Program.SQLTable (the prepared-statement wire sends only
// the ID, so a stale ID executes the wrong statement remotely).
func (v *checker) structural() {
	p := v.p

	if len(p.Methods) != len(p.MethodList) {
		v.addf(CheckStructural, nil, compile.NoBlock,
			"Methods map has %d entries, MethodList has %d", len(p.Methods), len(p.MethodList))
	}
	for i, m := range p.MethodList {
		if m == nil {
			v.addf(CheckStructural, nil, compile.NoBlock, "MethodList[%d] is nil", i)
			continue
		}
		if m.Idx != i {
			v.addf(CheckStructural, m, compile.NoBlock,
				"MethodInfo.Idx is %d but the method sits at MethodList[%d] — transfer frames would resolve the wrong method", m.Idx, i)
		}
		if p.Methods[m.QName] != m {
			v.addf(CheckStructural, m, compile.NoBlock,
				"Methods[%q] does not point back at the MethodList entry", m.QName)
		}
		if !v.validBlock(m.Entry) {
			v.addf(CheckStructural, m, compile.NoBlock,
				"entry b%d is outside the %d-block program", m.Entry, len(p.Blocks))
		}
	}

	for id, b := range p.Blocks {
		if b == nil {
			v.addf(CheckStructural, nil, compile.BlockID(id), "block is nil")
			continue
		}
		if b.ID != compile.BlockID(id) {
			v.addf(CheckStructural, nil, compile.BlockID(id),
				"block at index %d carries ID b%d — the runtime fetches blocks by index", id, b.ID)
		}
		v.structuralTerm(b)
		for i := range b.Code {
			in := &b.Code[i]
			if in.Op > compile.OpSendNative {
				v.addf(CheckStructural, nil, b.ID, "instr %d has unknown opcode %d", i, in.Op)
			}
			if in.Op == compile.OpDBQuery || in.Op == compile.OpDBExec {
				switch {
				case int(in.SQLID) < 0 || int(in.SQLID) >= len(p.SQLTable):
					v.addf(CheckStructural, nil, b.ID,
						"instr %d names sql statement #%d outside the %d-entry SQLTable", i, in.SQLID, len(p.SQLTable))
				case p.SQLTable[in.SQLID] != in.SQL:
					v.addf(CheckStructural, nil, b.ID,
						"instr %d: sql statement #%d resolves to %q but the instruction carries %q — the prepared wire would execute the wrong statement",
						i, in.SQLID, p.SQLTable[in.SQLID], in.SQL)
				}
			}
		}
	}
}

// structuralTerm validates one block's terminator: a known kind, every
// jump/continuation target in range, and calls naming a method from
// the program's own tables with receiver+params arity.
func (v *checker) structuralTerm(b *compile.Block) {
	t := &b.Term
	switch t.Kind {
	case compile.TGoto:
		if !v.validBlock(t.Target) {
			v.addf(CheckStructural, nil, b.ID, "goto targets b%d outside the %d-block program", t.Target, len(v.p.Blocks))
		}
	case compile.TIf:
		if !v.validBlock(t.Then) {
			v.addf(CheckStructural, nil, b.ID, "if-then targets b%d outside the %d-block program", t.Then, len(v.p.Blocks))
		}
		if !v.validBlock(t.Else) {
			v.addf(CheckStructural, nil, b.ID, "if-else targets b%d outside the %d-block program", t.Else, len(v.p.Blocks))
		}
	case compile.TCall:
		if !v.validBlock(t.Cont) {
			v.addf(CheckStructural, nil, b.ID, "call continuation targets b%d outside the %d-block program", t.Cont, len(v.p.Blocks))
		}
		switch m := t.Method; {
		case m == nil:
			v.addf(CheckStructural, nil, b.ID, "call names no method")
		case v.p.Methods[m.QName] != m:
			v.addf(CheckStructural, nil, b.ID,
				"call names method %s which is not in the program's tables", m.QName)
		case len(t.Args) != 1+len(m.Params):
			v.addf(CheckStructural, nil, b.ID,
				"call to %s passes %d args; receiver+%d params expected", m.QName, len(t.Args), len(m.Params))
		}
	case compile.TRet:
		// Val range is frame-relative; slotBounds checks it.
	default:
		v.addf(CheckStructural, nil, b.ID, "block ends in unknown terminator kind %d", t.Kind)
	}
}
