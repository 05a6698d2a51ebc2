package compile

import "fmt"

// FuseStats reports what the superblock pass did.
type FuseStats struct {
	BlocksBefore int
	BlocksAfter  int
	Merged       int // blocks absorbed into a predecessor
	Threaded     int // edges forwarded past empty goto blocks
	Dropped      int // unreachable blocks removed
}

func (s FuseStats) String() string {
	return fmt.Sprintf("fuse: %d→%d blocks (merged=%d threaded=%d dropped=%d)",
		s.BlocksBefore, s.BlocksAfter, s.Merged, s.Threaded, s.Dropped)
}

// Fuse is the superblock pass (run once, after Compile, on both
// peers): it merges chains of same-placement blocks linked by an
// unconditional TGoto whose target has exactly one predecessor, drops
// blocks that became (or always were) unreachable, renumbers the
// survivors densely, and computes per-block live-in, need-in and def
// slot sets (computeLiveness).
//
// The compiler emits many tiny blocks — dead continuations after
// return/break, if/loop scaffolding, call continuations — and
// Session.Run pays a block fetch, a placement check and a terminator
// switch for each. Fusing straight-line regions makes that overhead
// per-region instead of per-block, and, because only block boundaries
// are transfer-eligible, it can only remove control-transfer
// opportunities, never add them: a fused edge was an unconditional
// same-side goto, which never transferred.
func Fuse(p *Program) FuseStats {
	stats := FuseStats{BlocksBefore: len(p.Blocks)}

	// Jump threading: forward every edge past empty unconditional-goto
	// blocks (loop exits and placement scaffolding that ended up with
	// no code), so the runtime never dispatches a block that does
	// nothing but name the next one. Threading past a different-loc
	// empty block can only remove control transfers, never add them:
	// any transfer the skipped hop performed is subsumed by the
	// (at most one) transfer of the direct edge.
	resolve := func(id BlockID) BlockID {
		for hops := 0; hops < len(p.Blocks); hops++ {
			b := p.Blocks[id]
			if len(b.Code) != 0 || b.Term.Kind != TGoto || b.Term.Target == id {
				break
			}
			id = b.Term.Target
			stats.Threaded++
		}
		return id
	}
	for _, m := range p.MethodList {
		m.Entry = resolve(m.Entry)
	}
	for _, b := range p.Blocks {
		switch b.Term.Kind {
		case TGoto:
			b.Term.Target = resolve(b.Term.Target)
		case TIf:
			b.Term.Then = resolve(b.Term.Then)
			b.Term.Else = resolve(b.Term.Else)
		case TCall:
			b.Term.Cont = resolve(b.Term.Cont)
		}
	}

	// Reachability from method entries, so the dead continuations the
	// compiler emits after return/break (and the blocks threading just
	// bypassed) neither survive nor inflate predecessor counts.
	reach := make([]bool, len(p.Blocks))
	var walk func(id BlockID)
	walk = func(id BlockID) {
		if reach[id] {
			return
		}
		reach[id] = true
		b := p.Blocks[id]
		switch b.Term.Kind {
		case TGoto:
			walk(b.Term.Target)
		case TIf:
			walk(b.Term.Then)
			walk(b.Term.Else)
		case TCall:
			walk(b.Term.Cont)
		}
	}
	for _, m := range p.MethodList {
		walk(m.Entry)
	}

	// Predecessor counts over live blocks only. Method entries are
	// pinned (biased +2) so they are never absorbed: the runtime jumps
	// to them by MethodInfo and they must survive as block starts.
	refs := make([]int, len(p.Blocks))
	for _, m := range p.MethodList {
		refs[m.Entry] += 2
	}
	for _, b := range p.Blocks {
		if !reach[b.ID] {
			continue
		}
		switch b.Term.Kind {
		case TGoto:
			refs[b.Term.Target]++
		case TIf:
			refs[b.Term.Then]++
			refs[b.Term.Else]++
		case TCall:
			refs[b.Term.Cont]++
		}
	}

	// Merge goto chains: a same-placement target with exactly one
	// predecessor belongs to the straight-line region of that
	// predecessor, and an *empty* same-placement target costs nothing
	// to absorb (only its terminator is copied) however many
	// predecessors it has. Absorbing a single-pred t into b leaves t
	// dead; the loop keeps going so a whole a→b→c chain collapses in
	// one visit.
	dead := make([]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		if dead[b.ID] || !reach[b.ID] {
			continue
		}
		for hops := 0; b.Term.Kind == TGoto && hops < len(p.Blocks); hops++ {
			t := p.Blocks[b.Term.Target]
			if t.ID == b.ID || t.Loc != b.Loc || dead[t.ID] {
				break
			}
			if refs[t.ID] == 1 {
				b.Code = append(b.Code, t.Code...)
				b.Term = t.Term
				dead[t.ID] = true
				stats.Merged++
			} else if len(t.Code) == 0 {
				// Shared empty block (e.g. a pinned entry that only
				// returns): take its terminator, leave it alive for
				// the other predecessors, and keep refcounts honest —
				// t's successors just gained a predecessor.
				b.Term = t.Term
				refs[t.ID]--
				switch t.Term.Kind {
				case TGoto:
					refs[t.Term.Target]++
				case TIf:
					refs[t.Term.Then]++
					refs[t.Term.Else]++
				case TCall:
					refs[t.Term.Cont]++
				}
				stats.Threaded++
			} else {
				break
			}
		}
	}

	// Compact and renumber.
	remap := make([]BlockID, len(p.Blocks))
	var out []*Block
	for _, b := range p.Blocks {
		if !reach[b.ID] || dead[b.ID] {
			remap[b.ID] = NoBlock
			if !dead[b.ID] {
				stats.Dropped++
			}
			continue
		}
		remap[b.ID] = BlockID(len(out))
		out = append(out, b)
	}
	for _, m := range p.MethodList {
		m.Entry = remap[m.Entry]
	}
	for _, b := range out {
		b.ID = remap[b.ID]
		switch b.Term.Kind {
		case TGoto:
			b.Term.Target = remap[b.Term.Target]
		case TIf:
			b.Term.Then = remap[b.Term.Then]
			b.Term.Else = remap[b.Term.Else]
		case TCall:
			b.Term.Cont = remap[b.Term.Cont]
		}
	}
	p.Blocks = out
	p.Fused = true
	stats.BlocksAfter = len(out)

	computeLiveness(p)
	return stats
}

// computeLiveness runs two backward slot dataflows per method, in one
// fixpoint, and stores on each block its live-in bitset, its side-local
// NeedIn bitset and its Defs. A control transfer ships a slot only when
// the sender wrote it since the peer last had it and the receiving side
// may read it before control leaves that side again (NeedIn).
//
// NeedIn differs from LiveIn only at the edges: a successor on the
// other side contributes nothing (reaching it moves control away), and
// a call's continuation contributes only when it is on the caller's
// side — a callee that transfers ships the caller frame again, against
// the continuation's NeedIn on whichever side it lands.
func computeLiveness(p *Program) {
	var live, need []uint64
	for _, m := range p.MethodList {
		blocks := methodBlocks(p, m)
		nw := max((m.NSlots+63)/64, 1)
		// One allocation holds every set of the method.
		sets := make([]uint64, 3*nw*len(blocks))
		next := func() []uint64 {
			s := sets[:nw:nw]
			sets = sets[nw:]
			return s
		}
		for _, b := range blocks {
			b.LiveIn, b.NeedIn, b.Defs = next(), next(), next()
			for i := range b.Code {
				setBit(b.Defs, defSlot(&b.Code[i]))
			}
		}
		live, need = make([]uint64, nw), make([]uint64, nw)
		// sameSide ORs the NeedIn of successor to into need when the
		// successor runs on b's side.
		sameSide := func(b *Block, to BlockID) {
			if t := p.Blocks[to]; t.Loc == b.Loc {
				orInto(need, t.NeedIn)
			}
		}
		for changed := true; changed; {
			changed = false
			// Reverse emission order approximates reverse topological
			// order, so most facts converge in the first sweep.
			for i := len(blocks) - 1; i >= 0; i-- {
				b := blocks[i]
				clear(live)
				clear(need)
				switch b.Term.Kind {
				case TGoto:
					orInto(live, p.Blocks[b.Term.Target].LiveIn)
					sameSide(b, b.Term.Target)
				case TIf:
					orInto(live, p.Blocks[b.Term.Then].LiveIn)
					orInto(live, p.Blocks[b.Term.Else].LiveIn)
					sameSide(b, b.Term.Then)
					sameSide(b, b.Term.Else)
					setBit(live, b.Term.Cond)
					setBit(need, b.Term.Cond)
				case TCall:
					orInto(live, p.Blocks[b.Term.Cont].LiveIn)
					sameSide(b, b.Term.Cont)
					clearBit(live, b.Term.RetSlot)
					clearBit(need, b.Term.RetSlot)
					for _, a := range b.Term.Args {
						setBit(live, a)
						setBit(need, a)
					}
				case TRet:
					setBit(live, b.Term.Val)
					setBit(need, b.Term.Val)
				}
				for j := len(b.Code) - 1; j >= 0; j-- {
					stepLiveness(live, &b.Code[j])
					stepLiveness(need, &b.Code[j])
				}
				if !wordsEqual(live, b.LiveIn) {
					copy(b.LiveIn, live)
					changed = true
				}
				if !wordsEqual(need, b.NeedIn) {
					copy(b.NeedIn, need)
					changed = true
				}
			}
		}
	}
}

// defSlot returns the slot in writes, -1 when it writes none.
func defSlot(in *Instr) int {
	switch in.Op {
	case OpConst, OpNewObj, OpMove, OpUn, OpConv, OpGetField, OpLen, OpSha1, OpStr, OpTblRows, OpNewArr,
		OpBin, OpGetIdx, OpDBQuery, OpDBExec, OpTblGet:
		return in.A
	}
	return -1
}

// stepLiveness transfers live facts backward across one instruction:
// kill the defined slot, then gen the used ones.
func stepLiveness(live []uint64, in *Instr) {
	clearBit(live, defSlot(in))
	switch in.Op {
	case OpMove, OpUn, OpConv, OpGetField, OpLen, OpSha1, OpStr, OpTblRows, OpNewArr:
		setBit(live, in.B)
	case OpBin, OpGetIdx:
		setBit(live, in.B)
		setBit(live, in.C)
	case OpSetField:
		setBit(live, in.A)
		setBit(live, in.B)
	case OpSetIdx:
		setBit(live, in.A)
		setBit(live, in.B)
		setBit(live, in.C)
	case OpDBQuery, OpDBExec:
		for _, a := range in.Args {
			setBit(live, a)
		}
	case OpTblGet:
		setBit(live, in.B)
		setBit(live, in.C)
		for _, a := range in.Args {
			setBit(live, a)
		}
	case OpPrint:
		for _, a := range in.Args {
			setBit(live, a)
		}
	case OpSendPart, OpSendNative:
		setBit(live, in.A)
	case OpDBBegin, OpDBCommit, OpDBRollback:
		// no slot traffic
	}
}

// methodBlocks collects the blocks reachable from m's entry without
// entering callees (TCall continues in the same frame at Cont).
func methodBlocks(p *Program, m *MethodInfo) []*Block {
	seen := map[BlockID]bool{}
	var out []*Block
	var walk func(id BlockID)
	walk = func(id BlockID) {
		if id == NoBlock || seen[id] {
			return
		}
		seen[id] = true
		b := p.Blocks[id]
		out = append(out, b)
		switch b.Term.Kind {
		case TGoto:
			walk(b.Term.Target)
		case TIf:
			walk(b.Term.Then)
			walk(b.Term.Else)
		case TCall:
			walk(b.Term.Cont)
		}
	}
	walk(m.Entry)
	return out
}

func setBit(w []uint64, s int) {
	if s >= 0 && s>>6 < len(w) {
		w[s>>6] |= 1 << (uint(s) & 63)
	}
}

func clearBit(w []uint64, s int) {
	if s >= 0 && s>>6 < len(w) {
		w[s>>6] &^= 1 << (uint(s) & 63)
	}
}

func orInto(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
