// Package verify is the independent static checker for compiled block
// programs: it re-derives, from scratch, every fact the runtime trusts
// the compiler about — control-flow well-formedness, def-before-use,
// the per-block live-in, need-in and def masks the delta transfer
// codec ships by, the legality of every control-transfer resume point,
// placement sanity, and the confinement of table references to frame
// slots — and rejects any program where the re-derivation disagrees.
//
// The point is independence: internal/compile's forward passes
// (Compile, Fuse, computeLiveness) produce these facts; a bug there —
// a fusion rewrite that drops a slot from a NeedIn bitset, or a write
// missing from Defs — manifests not as a test failure but as silent
// data corruption on the remote peer, because the wire ships only the
// changed slots the bitsets claim the peer reads, and the receiver
// keeps its own copy of the rest. This package shares no
// code with those passes: it has its own instruction use/def model
// (opEffect), its own successor walk, its own forward must-defined and
// backward liveness fixpoints, so a compiler bug and a verifier bug
// have to coincide before a bad program gets through.
//
// The verifier registers itself with compile.RegisterVerifier at init,
// so every compile.Compile in a binary that links this package is
// checked by default (opt out per call with compile.NoVerify()).
// pyxis.Partition additionally re-verifies after Fuse, and cmd/pyxisc
// -verify prints the diagnostics with disassembled block context.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"pyxis/internal/compile"
	"pyxis/internal/pdg"
)

func init() { compile.RegisterVerifier(Program) }

// Check classes, in the order they run. Structural failures abort the
// run (dataflow over dangling targets proves nothing).
const (
	CheckStructural = "structural"
	CheckDefUse     = "defuse"
	CheckLiveness   = "liveness"
	CheckTransfer   = "transfer"
	CheckPlacement  = "placement"
	CheckScope      = "scope"
)

// Diag is one verifier finding.
type Diag struct {
	Check  string          // which check class fired (Check* constants)
	Method string          // owning method's qname ("" = program-level)
	Block  compile.BlockID // offending block (compile.NoBlock = n/a)
	Msg    string
}

func (d Diag) String() string {
	var b strings.Builder
	b.WriteString(d.Check)
	if d.Method != "" {
		fmt.Fprintf(&b, ": %s", d.Method)
	}
	if d.Block != compile.NoBlock {
		fmt.Fprintf(&b, ": b%d", d.Block)
	}
	fmt.Fprintf(&b, ": %s", d.Msg)
	return b.String()
}

// Program runs every check over p and returns an error carrying the
// diagnostics when any fail. This is the function compile.Compile runs
// by default.
func Program(p *compile.Program) error {
	ds := Diagnostics(p)
	if len(ds) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(ds)+1)
	for i, d := range ds {
		if i == 8 {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(ds)-i))
			break
		}
		msgs = append(msgs, d.String())
	}
	return fmt.Errorf("verify: %d finding(s):\n  %s", len(ds), strings.Join(msgs, "\n  "))
}

// Diagnostics runs every check over p and returns the findings in
// deterministic order (check order, then method order, then block
// order). An empty slice means the program verified clean.
func Diagnostics(p *compile.Program) []Diag {
	v := &checker{p: p}
	v.structural()
	if len(v.diags) > 0 {
		// A structurally broken program has dangling targets or
		// inconsistent tables; the dataflow checks would chase them into
		// panics or nonsense. Report the structural findings alone.
		return v.diags
	}
	v.assignMethods()
	v.slotBounds()
	if len(v.diags) > 0 {
		// Out-of-range slots would index outside the dataflow sets.
		return v.diags
	}
	v.placement()
	v.scope()
	v.defUse()
	v.liveness()
	v.transfers()
	return v.diags
}

type checker struct {
	p     *compile.Program
	diags []Diag
	// methodOf[id] is the method whose frame executes block id, derived
	// by walking each method's entry without entering callees. nil for
	// blocks no method reaches (dead scaffolding pre-fusion).
	methodOf []*compile.MethodInfo
	// liveIn[id] and needIn[id] are the independently recomputed
	// live-in and side-local need-in slot sets, filled by the liveness
	// check and reused by the transfer check.
	liveIn, needIn []map[int]bool
}

func (v *checker) addf(check string, m *compile.MethodInfo, b compile.BlockID, format string, args ...any) {
	q := ""
	if m != nil {
		q = m.QName
	}
	v.diags = append(v.diags, Diag{Check: check, Method: q, Block: b, Msg: fmt.Sprintf(format, args...)})
}

func (v *checker) validBlock(id compile.BlockID) bool {
	return id >= 0 && int(id) < len(v.p.Blocks)
}

// succEdges returns a block's intra-frame successors. The TCall edge
// carries the callee's return slot: on that edge the runtime writes
// RetSlot before the continuation runs.
type edge struct {
	to      compile.BlockID
	defines int // slot defined by traversing the edge (-1 = none)
}

func succEdges(b *compile.Block) []edge {
	switch b.Term.Kind {
	case compile.TGoto:
		return []edge{{to: b.Term.Target, defines: -1}}
	case compile.TIf:
		return []edge{{to: b.Term.Then, defines: -1}, {to: b.Term.Else, defines: -1}}
	case compile.TCall:
		return []edge{{to: b.Term.Cont, defines: b.Term.RetSlot}}
	}
	return nil
}

// opEffect independently restates the instruction set's register
// model: which slots in reads (uses) and which it writes (defs). It
// deliberately does NOT share compile's stepLiveness — disagreement
// between the two models is exactly what the liveness check detects.
func opEffect(in *compile.Instr) (defs, uses []int) {
	switch in.Op {
	case compile.OpConst, compile.OpNewObj:
		return []int{in.A}, nil
	case compile.OpMove, compile.OpUn, compile.OpConv, compile.OpGetField,
		compile.OpLen, compile.OpSha1, compile.OpStr, compile.OpTblRows, compile.OpNewArr:
		return []int{in.A}, []int{in.B}
	case compile.OpBin, compile.OpGetIdx:
		return []int{in.A}, []int{in.B, in.C}
	case compile.OpSetField:
		return nil, []int{in.A, in.B}
	case compile.OpSetIdx:
		return nil, []int{in.A, in.B, in.C}
	case compile.OpDBQuery, compile.OpDBExec:
		return []int{in.A}, in.Args
	case compile.OpTblGet:
		uses = append(uses, in.B, in.C)
		uses = append(uses, in.Args...)
		return []int{in.A}, uses
	case compile.OpPrint:
		return nil, in.Args
	case compile.OpSendPart, compile.OpSendNative:
		return nil, []int{in.A}
	}
	return nil, nil // begin/commit/rollback: no slot traffic
}

// termUses returns the slots a terminator reads in the current frame.
func termUses(t *compile.Term) []int {
	switch t.Kind {
	case compile.TIf:
		return []int{t.Cond}
	case compile.TCall:
		return t.Args
	case compile.TRet:
		if t.Val >= 0 {
			return []int{t.Val}
		}
	}
	return nil
}

// assignMethods walks each method's blocks (successors only, never
// into callees) and records the owner. A block reachable from two
// methods would make its frame size ambiguous — compiled programs
// never share blocks across methods, so sharing is itself a finding.
func (v *checker) assignMethods() {
	v.methodOf = make([]*compile.MethodInfo, len(v.p.Blocks))
	for _, m := range v.p.MethodList {
		var walk func(id compile.BlockID)
		walk = func(id compile.BlockID) {
			if owner := v.methodOf[id]; owner != nil {
				if owner != m {
					v.addf(CheckStructural, m, id, "block is shared with method %s — frame layout is ambiguous", owner.QName)
				}
				return
			}
			v.methodOf[id] = m
			for _, e := range succEdges(v.p.Blocks[id]) {
				walk(e.to)
			}
		}
		walk(m.Entry)
	}
}

// methodBlockIDs returns m's blocks in ascending ID order, for
// deterministic diagnostics.
func (v *checker) methodBlockIDs(m *compile.MethodInfo) []compile.BlockID {
	var ids []compile.BlockID
	for id := range v.p.Blocks {
		if v.methodOf[id] == m {
			ids = append(ids, compile.BlockID(id))
		}
	}
	return ids
}

// slotBounds checks that every slot an instruction or terminator
// names fits the owning method's frame.
func (v *checker) slotBounds() {
	for _, m := range v.p.MethodList {
		if len(m.Params)+1 > m.NSlots {
			v.addf(CheckStructural, m, compile.NoBlock,
				"frame has %d slots but receiver+params need %d", m.NSlots, len(m.Params)+1)
		}
		for _, id := range v.methodBlockIDs(m) {
			b := v.p.Blocks[id]
			for i := range b.Code {
				defs, uses := opEffect(&b.Code[i])
				for _, s := range append(append([]int{}, defs...), uses...) {
					if s < 0 || s >= m.NSlots {
						v.addf(CheckStructural, m, id,
							"instr %d (%s) names slot %d outside frame of %d slots", i, opName(b.Code[i].Op), s, m.NSlots)
					}
				}
			}
			for _, s := range termUses(&b.Term) {
				if s < 0 || s >= m.NSlots {
					v.addf(CheckStructural, m, id,
						"terminator reads slot %d outside frame of %d slots", s, m.NSlots)
				}
			}
			if b.Term.Kind == compile.TCall {
				if r := b.Term.RetSlot; r < 0 || r >= m.NSlots {
					v.addf(CheckStructural, m, id,
						"call stores its return in slot %d outside frame of %d slots", r, m.NSlots)
				}
			}
			if b.Term.Kind == compile.TRet {
				if val := b.Term.Val; val < -1 || val >= m.NSlots {
					v.addf(CheckStructural, m, id,
						"return names slot %d outside frame of %d slots", val, m.NSlots)
				}
			}
		}
	}
}

// placement checks that DB-placed blocks execute only DB-legal
// instructions. Console output is pinned to the application server by
// the partitioner (pdg.Build pins print statements APP), so a print in
// a DB block means the placement was corrupted after solving.
func (v *checker) placement() {
	for _, b := range v.p.Blocks {
		if b.Loc != pdg.DB {
			continue
		}
		for i := range b.Code {
			if b.Code[i].Op == compile.OpPrint {
				v.addf(CheckPlacement, v.methodOf[b.ID], b.ID,
					"instr %d is a print on a DB-placed block — console output is pinned to the application server", i)
			}
		}
	}
}

var opNames = map[compile.Op]string{
	compile.OpConst: "const", compile.OpMove: "move", compile.OpBin: "bin",
	compile.OpUn: "un", compile.OpConv: "conv", compile.OpNewObj: "newobj",
	compile.OpNewArr: "newarr", compile.OpGetField: "getfield",
	compile.OpSetField: "setfield", compile.OpGetIdx: "getidx",
	compile.OpSetIdx: "setidx", compile.OpLen: "len",
	compile.OpDBQuery: "dbquery", compile.OpDBExec: "dbexec",
	compile.OpDBBegin: "dbbegin", compile.OpDBCommit: "dbcommit",
	compile.OpDBRollback: "dbrollback", compile.OpPrint: "print",
	compile.OpSha1: "sha1", compile.OpStr: "str", compile.OpTblRows: "tblrows",
	compile.OpTblGet: "tblget", compile.OpSendPart: "sendpart",
	compile.OpSendNative: "sendnative",
}

func opName(op compile.Op) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", op)
}

func sortedSlots(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
