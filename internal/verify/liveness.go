package verify

import (
	"sort"

	"pyxis/internal/compile"
)

// liveness recomputes every block's live-in and need-in slot sets and
// its defs with independently written code, and checks the stored
// Block bitsets against them. The stored masks decide what the delta
// transfer codec ships (runtime/transfer.go):
//
//   - LiveIn must be a SUPERSET of the recomputation: it decides which
//     table references a peer keeps, and a table named by a dropped
//     slot is freed while the program can still read it.
//   - NeedIn must be a SUPERSET: a transfer ships a changed slot only
//     when the resuming side needs it, so a dropped bit leaves the
//     receiver reading its own stale copy — silent corruption, not an
//     error.
//   - Defs must EQUAL the recomputation: the runtime marks exactly Defs
//     dirty after a block runs, so a missing bit is a write that never
//     ships, and an extra one ships a value the peer already has.
//
// Over-approximating a superset merely ships dead bytes. A nil stored
// set means "everything" and is always sound; on a fused program (the
// only kind the codec is specified for) a nil set on a live block is
// itself a finding, because Fuse computes all three for every
// reachable block.
func (v *checker) liveness() {
	v.liveIn = make([]map[int]bool, len(v.p.Blocks))
	v.needIn = make([]map[int]bool, len(v.p.Blocks))
	for _, m := range v.p.MethodList {
		v.livenessMethod(m)
	}
	for _, b := range v.p.Blocks {
		m := v.methodOf[b.ID]
		if m == nil {
			continue // dead scaffolding; never resumed, never shipped
		}
		if b.LiveIn == nil || b.NeedIn == nil || b.Defs == nil {
			if v.p.Fused {
				v.addf(CheckLiveness, m, b.ID, "fused program block lacks a LiveIn, NeedIn or Defs mask — transfers resuming here would ship blind")
			}
		}
		if b.LiveIn != nil {
			for _, s := range sortedSlots(v.liveIn[b.ID]) {
				if !b.LiveAt(s) {
					v.addf(CheckLiveness, m, b.ID,
						"LiveIn mask drops slot %d, which is live on entry — a transfer resuming here would zero it", s)
				}
			}
		}
		if b.NeedIn != nil {
			for _, s := range sortedSlots(v.needIn[b.ID]) {
				if !b.NeedAt(s) {
					v.addf(CheckLiveness, m, b.ID,
						"NeedIn mask drops slot %d, which this side reads before control leaves it — a transfer resuming here would leave it stale", s)
				}
			}
		}
		if b.Defs != nil {
			v.checkDefs(m, b)
		}
	}
}

// checkDefs requires b.Defs to be exactly the slots b's instructions
// write.
func (v *checker) checkDefs(m *compile.MethodInfo, b *compile.Block) {
	written := map[int]bool{}
	for i := range b.Code {
		defs, _ := opEffect(&b.Code[i])
		for _, s := range defs {
			written[s] = true
		}
	}
	for _, s := range sortedSlots(written) {
		if s>>6 >= len(b.Defs) || b.Defs[s>>6]&(1<<(uint(s)&63)) == 0 {
			v.addf(CheckLiveness, m, b.ID,
				"Defs mask omits slot %d, which the block writes — the write would never be marked dirty, so it would never ship", s)
		}
	}
	for w, bits := range b.Defs {
		for bit := 0; bit < 64; bit++ {
			if s := w*64 + bit; bits&(1<<uint(bit)) != 0 && !written[s] {
				v.addf(CheckLiveness, m, b.ID,
					"Defs mask claims slot %d, which no instruction of the block writes", s)
			}
		}
	}
}

// livenessMethod runs the backward fixpoints over m's blocks, live-in
// and need-in together. The edge transfer mirrors the runtime's resume
// semantics: an if reads its condition; a call's continuation sees
// RetSlot freshly written (so it is dead across the call) while the
// argument slots are read by the call itself; a return reads the
// returned slot. Need-in is the same walk cut at the placement
// boundary: a successor on the other side adds nothing, because
// reaching it moves control away, and a call's continuation adds only
// when it is on the caller's side.
func (v *checker) livenessMethod(m *compile.MethodInfo) {
	ids := v.methodBlockIDs(m)
	for _, id := range ids {
		v.liveIn[id] = map[int]bool{}
		v.needIn[id] = map[int]bool{}
	}
	// Iterate to fixpoint, sweeping in descending ID order (compiled
	// programs emit roughly topologically, so the backward facts mostly
	// converge in one sweep).
	desc := append([]compile.BlockID(nil), ids...)
	sort.Slice(desc, func(i, j int) bool { return desc[i] > desc[j] })
	for changed := true; changed; {
		changed = false
		for _, id := range desc {
			b := v.p.Blocks[id]
			live, need := map[int]bool{}, map[int]bool{}
			for _, e := range succEdges(b) {
				for s := range v.liveIn[e.to] {
					live[s] = true
				}
				if v.p.Blocks[e.to].Loc == b.Loc {
					for s := range v.needIn[e.to] {
						need[s] = true
					}
				}
				if e.defines >= 0 {
					delete(live, e.defines)
					delete(need, e.defines)
				}
			}
			for _, s := range termUses(&b.Term) {
				live[s] = true
				need[s] = true
			}
			for i := len(b.Code) - 1; i >= 0; i-- {
				defs, uses := opEffect(&b.Code[i])
				for _, s := range defs {
					delete(live, s)
					delete(need, s)
				}
				for _, s := range uses {
					live[s] = true
					need[s] = true
				}
			}
			if !setsEqual(live, v.liveIn[id]) {
				v.liveIn[id] = live
				changed = true
			}
			if !setsEqual(need, v.needIn[id]) {
				v.needIn[id] = need
				changed = true
			}
		}
	}
}

func setsEqual(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}
