package verify

import (
	"pyxis/internal/compile"
	"pyxis/internal/pdg"
)

// transfers enumerates every point where the runtime can serialize a
// frame stack and checks the masks the delta codec reads there
// (runtime/transfer.go encodeStack) against the recomputed sets of the
// resume block: LiveIn decides which table-holding slots travel and
// which tables the peers keep, NeedIn which changed slots the resuming
// side is sent. Two frame positions exist on the wire:
//
//   - the TOP frame resumes at the transfer target itself: any block
//     reachable over a placement-crossing edge, plus any method entry
//     placed on the DB (the client starts every invocation on the APP
//     side, so a DB entry transfers immediately). Both masks are read
//     with no exclusions.
//
//   - every CALLER frame resumes at its callee's continuation with the
//     callee's RetSlot excluded — the return value overwrites that
//     slot before the continuation runs, so it is the one legal
//     exclusion. Every TCall is a potential caller frame (the callee
//     may transfer at any depth below it), so every (Cont, RetSlot)
//     pair is checked.
//
// In both positions a slot the masks miss keeps the receiver's stale
// copy (or frees a table it still reads): wire corruption.
func (v *checker) transfers() {
	// Top-frame resume points.
	resume := map[compile.BlockID]bool{}
	for _, b := range v.p.Blocks {
		if v.methodOf[b.ID] == nil {
			continue
		}
		for _, e := range succEdges(b) {
			if v.p.Blocks[e.to].Loc != b.Loc {
				resume[e.to] = true
			}
		}
		// A call into a method whose entry sits on the other side
		// transfers with the callee frame on top, resuming at the entry.
		if b.Term.Kind == compile.TCall && b.Term.Method != nil {
			if v.p.Blocks[b.Term.Method.Entry].Loc != b.Loc {
				resume[b.Term.Method.Entry] = true
			}
		}
	}
	for _, m := range v.p.MethodList {
		if v.p.Blocks[m.Entry].Loc == pdg.DB {
			resume[m.Entry] = true
		}
	}
	for _, b := range v.p.Blocks {
		if !resume[b.ID] {
			continue
		}
		for _, s := range sortedSlots(v.liveIn[b.ID]) {
			if !b.LiveAt(s) { // a nil mask keeps everything: always sound
				v.addf(CheckTransfer, v.methodOf[b.ID], b.ID,
					"a control transfer resuming here would ship a mask that drops live slot %d", s)
			}
		}
		for _, s := range sortedSlots(v.needIn[b.ID]) {
			if !b.NeedAt(s) {
				v.addf(CheckTransfer, v.methodOf[b.ID], b.ID,
					"a control transfer resuming here would not ship slot %d, which the resuming side reads", s)
			}
		}
	}

	// Caller-frame resume points: (Cont, RetSlot) of every call.
	for _, b := range v.p.Blocks {
		if b.Term.Kind != compile.TCall || v.methodOf[b.ID] == nil {
			continue
		}
		cont := v.p.Blocks[b.Term.Cont]
		for _, s := range sortedSlots(v.liveIn[cont.ID]) {
			if s == b.Term.RetSlot {
				continue // overwritten by the return value: the one legal exclusion
			}
			if !cont.LiveAt(s) {
				v.addf(CheckTransfer, v.methodOf[b.ID], cont.ID,
					"a caller frame suspended at the call in b%d resumes here with live slot %d outside the shipped mask (only RetSlot %d may be excluded)",
					b.ID, s, b.Term.RetSlot)
			}
		}
		for _, s := range sortedSlots(v.needIn[cont.ID]) {
			if s != b.Term.RetSlot && !cont.NeedAt(s) {
				v.addf(CheckTransfer, v.methodOf[b.ID], cont.ID,
					"a caller frame suspended at the call in b%d resumes here reading slot %d, which a transfer would not ship (only RetSlot %d may be excluded)",
					b.ID, s, b.Term.RetSlot)
			}
		}
	}
}
