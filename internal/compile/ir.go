// Package compile translates PyxIL programs into execution blocks
// (paper §5): straight-line instruction sequences, each placed on one
// server, that end by naming the next block — continuation-passing
// style, exactly the Fig. 7 code shape. Local variables become
// explicit stack slots so the runtime fully controls program state and
// can suspend at any placement boundary.
package compile

import (
	"fmt"
	"strings"

	"pyxis/internal/pdg"
	"pyxis/internal/source"
	"pyxis/internal/val"
)

// BlockID identifies an execution block.
type BlockID int32

// NoBlock is the nil block id.
const NoBlock BlockID = -1

// Op enumerates block instructions.
type Op uint8

const (
	OpConst    Op = iota // slots[A] = Lit
	OpMove               // slots[A] = slots[B]
	OpBin                // slots[A] = slots[B] <Sub:BinOp> slots[C]
	OpUn                 // slots[A] = <Sub:UnOp> slots[B]
	OpConv               // slots[A] = double(slots[B])
	OpNewObj             // slots[A] = new Class
	OpNewArr             // slots[A] = new [slots[B]] with zero Lit
	OpGetField           // slots[A] = slots[B].Field
	OpSetField           // slots[A].Field = slots[B]
	OpGetIdx             // slots[A] = slots[B][slots[C]]
	OpSetIdx             // slots[A][slots[B]] = slots[C]
	OpLen                // slots[A] = len(slots[B])
	OpDBQuery            // slots[A] = db.query(SQL, slots[Args...])
	OpDBExec             // slots[A] = db.update(SQL, slots[Args...])
	OpDBBegin
	OpDBCommit
	OpDBRollback
	OpPrint      // print slots[Args...]
	OpSha1       // slots[A] = sha1(slots[B])
	OpConcat     // slots[A] = str(slots[Args[0]]) + str(slots[Args[1]]) + …
	OpTblRows    // slots[A] = rows(slots[B])
	OpTblGet     // slots[A] = slots[B].get(slots[C], slots[Args[0]]) as Sub(Builtin)
	OpSendPart   // mark object slots[A]'s Sub(Loc) part for sync
	OpSendNative // mark array/table slots[A] for sync (no-op on scalars)

	// NumOps counts the opcodes above; an Op at or past it is unknown.
	NumOps
)

var opNames = map[Op]string{
	OpConst: "const", OpMove: "move", OpBin: "bin", OpUn: "un", OpConv: "conv",
	OpNewObj: "newobj", OpNewArr: "newarr", OpGetField: "getfield",
	OpSetField: "setfield", OpGetIdx: "getidx", OpSetIdx: "setidx", OpLen: "len",
	OpDBQuery: "dbquery", OpDBExec: "dbexec", OpDBBegin: "dbbegin",
	OpDBCommit: "dbcommit", OpDBRollback: "dbrollback", OpPrint: "print",
	OpSha1: "sha1", OpConcat: "concat", OpTblRows: "tblrows", OpTblGet: "tblget",
	OpSendPart: "sendpart", OpSendNative: "sendnative",
}

// Instr is one executable instruction.
type Instr struct {
	Op      Op
	A, B, C int
	Sub     uint8
	Lit     val.Value
	Class   *ClassInfo
	Field   *FieldRef
	SQL     string
	// SQLID indexes Program.SQLTable for OpDBQuery/OpDBExec: the
	// compile-time statement number carried on the prepared dbapi wire
	// instead of the SQL text. Only meaningful when
	// Program.SQLTable[SQLID] == SQL (hand-built instructions leave it
	// zero and are executed over the string path).
	SQLID int32
	Args  []int
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	TGoto TermKind = iota
	TIf
	TCall
	TRet
)

// Term ends a block. For TCall, the runtime pushes a frame for Method,
// copies caller slots Args into callee slots 0..len(Args)-1 (slot 0 is
// the receiver), and resumes at Cont with the return value stored in
// RetSlot when the callee returns. For TRet, Val is the returned slot
// (-1 = zero value of the method's return type).
type Term struct {
	Kind    TermKind
	Target  BlockID // TGoto
	Cond    int     // TIf condition slot
	Then    BlockID // TIf
	Else    BlockID // TIf
	Method  *MethodInfo
	Args    []int
	RetSlot int
	Cont    BlockID
	Val     int // TRet
}

// Block is one execution block with a fixed placement.
type Block struct {
	ID   BlockID
	Loc  pdg.Loc
	Code []Instr
	Term Term
	// LiveIn is the frame-slot liveness bitset at block entry (word
	// i>>6, bit i&63), computed by Fuse: the slots any later block of
	// the frame, on either side, may read before writing them. It
	// decides which table references a peer keeps. nil means unknown
	// (every slot live).
	LiveIn []uint64
	// NeedIn is side-local liveness at block entry, computed by Fuse:
	// the slots a block on this block's side may read before writing
	// them, on paths that stop where control moves to the other side.
	// A control transfer resuming here ships no other slot of the
	// frame. nil means unknown (every slot needed).
	NeedIn []uint64
	// Defs is the set of slots the block's instructions write (the
	// terminator's effects excluded), computed by Fuse. The runtime
	// marks them dirty in the frame after running the block; a slot
	// never marked dirty never ships. nil means unknown (the block may
	// write any slot).
	Defs []uint64
}

// LiveAt reports whether slot s is live at block entry. A nil bitset
// (liveness not computed) treats every slot as live.
func (b *Block) LiveAt(s int) bool { return bitAt(b.LiveIn, s) }

// NeedAt reports whether slot s is in NeedIn. A nil bitset treats
// every slot as needed.
func (b *Block) NeedAt(s int) bool { return bitAt(b.NeedIn, s) }

func bitAt(set []uint64, s int) bool {
	if set == nil {
		return true
	}
	w := s >> 6
	return w < len(set) && set[w]&(1<<(uint(s)&63)) != 0
}

// FieldRef resolves a source field to its split-class location: which
// part (APP or DB) and the index within that part.
type FieldRef struct {
	Class   *ClassInfo
	Name    string
	Loc     pdg.Loc
	PartIdx int
	Type    source.Type
}

// ClassInfo is the compiled form of a class: fields split into APP and
// DB parts per the placement (paper Fig. 6).
type ClassInfo struct {
	Name string
	// Fields is indexed by the source field Index.
	Fields []*FieldRef
	// NumApp/NumDB are the part sizes.
	NumApp, NumDB int
	// Ctor, if any.
	Ctor *MethodInfo
}

// PartLen returns the number of fields in the given part.
func (c *ClassInfo) PartLen(loc pdg.Loc) int {
	if loc == pdg.DB {
		return c.NumDB
	}
	return c.NumApp
}

// ZeroPart builds a zeroed part value array.
func (c *ClassInfo) ZeroPart(loc pdg.Loc) []val.Value {
	out := make([]val.Value, c.PartLen(loc))
	for _, f := range c.Fields {
		if f.Loc == loc {
			out[f.PartIdx] = f.Type.Zero()
		}
	}
	return out
}

// MethodInfo is the compiled form of a method.
type MethodInfo struct {
	QName        string
	Name         string
	Class        *ClassInfo
	Entry        BlockID
	NSlots       int // frame size: 1 (this) + locals + temps
	Params       []source.Type
	Ret          source.Type
	IsEntryPoint bool
	// Idx is the method's position in MethodList. Both peers compile
	// the same program, so transfer frames name methods by this index
	// instead of the qname string.
	Idx int
}

// Program is a compiled, placed program.
type Program struct {
	Blocks  []*Block
	Classes map[string]*ClassInfo
	Methods map[string]*MethodInfo
	// MethodList preserves declaration order.
	MethodList []*MethodInfo
	// SQLTable numbers every distinct SQL string in the program; the
	// prepared dbapi wire sends SQLTable indices instead of text.
	SQLTable []string
	// Fused is set once the superblock fusion pass has run.
	Fused bool
}

// Block returns a block by id.
func (p *Program) Block(id BlockID) *Block { return p.Blocks[id] }

// Method resolves "Class.method".
func (p *Program) Method(qname string) *MethodInfo { return p.Methods[qname] }

// Stats summarizes the compiled program.
func (p *Program) Stats() string {
	app, db := 0, 0
	instrs := 0
	for _, b := range p.Blocks {
		instrs += len(b.Code)
		if b.Loc == pdg.DB {
			db++
		} else {
			app++
		}
	}
	return fmt.Sprintf("blocks=%d (app=%d db=%d) instrs=%d methods=%d classes=%d",
		len(p.Blocks), app, db, instrs, len(p.Methods), len(p.Classes))
}

// Disassemble renders the block program for debugging and for the
// pyxisc -blocks output.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for _, m := range p.MethodList {
		fmt.Fprintf(&b, "method %s: idx=%d entry=b%d slots=%d\n", m.QName, m.Idx, m.Entry, m.NSlots)
	}
	for i, sql := range p.SQLTable {
		fmt.Fprintf(&b, "stmt #%d: %q\n", i, sql)
	}
	for _, blk := range p.Blocks {
		p.disasmBlock(&b, blk)
	}
	return b.String()
}

// DisassembleBlock renders a single block — the context line the
// verifier's diagnostics print so a finding reads without the full
// program dump.
func (p *Program) DisassembleBlock(id BlockID) string {
	if id < 0 || int(id) >= len(p.Blocks) {
		return fmt.Sprintf("b%d <out of range>\n", id)
	}
	var b strings.Builder
	p.disasmBlock(&b, p.Blocks[id])
	return b.String()
}

func (p *Program) disasmBlock(b *strings.Builder, blk *Block) {
	fmt.Fprintf(b, "b%d [%s]:", blk.ID, blk.Loc)
	for _, set := range []struct {
		name string
		bits []uint64
	}{{"live-in", blk.LiveIn}, {"need-in", blk.NeedIn}, {"defs", blk.Defs}} {
		if set.bits == nil {
			continue
		}
		fmt.Fprintf(b, " %s={", set.name)
		sep := ""
		for s := 0; s < len(set.bits)*64; s++ {
			if bitAt(set.bits, s) {
				fmt.Fprintf(b, "%s%d", sep, s)
				sep = ","
			}
		}
		b.WriteString("}")
	}
	b.WriteString("\n")
	for _, in := range blk.Code {
		fmt.Fprintf(b, "  %s", opNames[in.Op])
		fmt.Fprintf(b, " A=%d B=%d C=%d", in.A, in.B, in.C)
		if in.Field != nil {
			fmt.Fprintf(b, " field=%s.%s", in.Field.Class.Name, in.Field.Name)
		}
		if in.SQL != "" || in.Op == OpDBQuery || in.Op == OpDBExec {
			// The prepared wire executes SQLTable[SQLID], not the copy on
			// the instruction — print the table's text (and flag any
			// divergence, which the verifier rejects as corruption).
			switch {
			case int(in.SQLID) >= 0 && int(in.SQLID) < len(p.SQLTable) && p.SQLTable[in.SQLID] == in.SQL:
				fmt.Fprintf(b, " sql=#%d:%q", in.SQLID, p.SQLTable[in.SQLID])
			case int(in.SQLID) >= 0 && int(in.SQLID) < len(p.SQLTable):
				fmt.Fprintf(b, " sql=#%d:%q (instr carries %q — MISMATCH)", in.SQLID, p.SQLTable[in.SQLID], in.SQL)
			default:
				fmt.Fprintf(b, " sql=#%d:%q (id unresolved in SQLTable)", in.SQLID, in.SQL)
			}
		}
		if len(in.Args) > 0 {
			fmt.Fprintf(b, " args=%v", in.Args)
		}
		b.WriteString("\n")
	}
	switch blk.Term.Kind {
	case TGoto:
		fmt.Fprintf(b, "  goto b%d\n", blk.Term.Target)
	case TIf:
		fmt.Fprintf(b, "  if s%d then b%d else b%d\n", blk.Term.Cond, blk.Term.Then, blk.Term.Else)
	case TCall:
		fmt.Fprintf(b, "  call %s args=%v ret=s%d cont=b%d\n", blk.Term.Method.QName, blk.Term.Args, blk.Term.RetSlot, blk.Term.Cont)
	case TRet:
		fmt.Fprintf(b, "  ret s%d\n", blk.Term.Val)
	}
}
