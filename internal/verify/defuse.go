package verify

import (
	"fmt"
	"strings"

	"pyxis/internal/compile"
)

// defUse proves, per method, that no slot is read on any path before
// it is written. This is the invariant the transfer decoder leans on
// when it leaves a new frame's unshipped slots zero: a slot the masks
// did not ship is only safe to zero because every path writes it
// before reading it.
//
// The analysis is a forward must-defined fixpoint: a slot is defined
// at a point iff it is defined on EVERY path reaching that point
// (intersection over predecessors). At a method's entry exactly the
// receiver and parameter slots are defined — the runtime copies
// receiver+args into slots 0..len(Params) before the entry block runs.
// The TCall edge into the continuation additionally defines RetSlot,
// which the runtime writes with the return value before resuming.
func (v *checker) defUse() {
	for _, m := range v.p.MethodList {
		v.defUseMethod(m)
	}
}

func (v *checker) defUseMethod(m *compile.MethodInfo) {
	entryDefined := map[int]bool{}
	for s := 0; s <= len(m.Params) && s < m.NSlots; s++ {
		entryDefined[s] = true
	}

	// Fixpoint: in[b] = ∩ over predecessor edges of (out of pred +
	// edge-defined slot). Blocks start unvisited (⊤); the worklist
	// seeds at the entry.
	in := map[compile.BlockID]map[int]bool{m.Entry: cloneSet(entryDefined)}
	work := []compile.BlockID{m.Entry}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		b := v.p.Blocks[id]
		out := cloneSet(in[id])
		for i := range b.Code {
			defs, _ := opEffect(&b.Code[i])
			for _, s := range defs {
				out[s] = true
			}
		}
		for _, e := range succEdges(b) {
			eout := out
			if e.defines >= 0 {
				eout = cloneSet(out)
				eout[e.defines] = true
			}
			cur, seen := in[e.to]
			if !seen {
				in[e.to] = cloneSet(eout)
				work = append(work, e.to)
				continue
			}
			if intersectInto(cur, eout) {
				work = append(work, e.to)
			}
		}
	}

	// Report pass: scan each reached block with its fixpoint in-set and
	// flag the first undefined read per (block, slot), naming a path
	// from the entry along which the slot is never written.
	for _, id := range v.methodBlockIDs(m) {
		cur, reached := in[id]
		if !reached {
			continue
		}
		cur = cloneSet(cur)
		b := v.p.Blocks[id]
		flagged := map[int]bool{}
		// flag reports slot s read by instruction i (-1: the terminator).
		flag := func(s, i int) {
			if cur[s] || flagged[s] {
				return
			}
			flagged[s] = true
			what := "the terminator"
			if i >= 0 {
				what = fmt.Sprintf("instr %d (%s)", i, opName(b.Code[i].Op))
			}
			v.addf(CheckDefUse, m, id, "slot %d is read by %s before any write; undefined along %s",
				s, what, v.undefinedPath(m, entryDefined, id, s))
		}
		for i := range b.Code {
			defs, uses := opEffect(&b.Code[i])
			for _, s := range uses {
				flag(s, i)
			}
			for _, s := range defs {
				cur[s] = true
			}
		}
		for _, s := range termUses(&b.Term) {
			flag(s, -1)
		}
	}
}

// undefinedPath finds an entry→use path along which slot s is never
// written, rendered "b0 -> b3 -> b7" for the diagnostic. BFS over
// blocks, traversing an edge only when neither the block's code nor
// the edge itself defines s.
func (v *checker) undefinedPath(m *compile.MethodInfo, entryDefined map[int]bool, use compile.BlockID, s int) string {
	if entryDefined[s] {
		return "an interior path (the entry defines the slot)"
	}
	parent := map[compile.BlockID]compile.BlockID{m.Entry: compile.NoBlock}
	queue := []compile.BlockID{m.Entry}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if id == use {
			var rev []compile.BlockID
			for at := id; at != compile.NoBlock; at = parent[at] {
				rev = append(rev, at)
			}
			parts := make([]string, len(rev))
			for i := range rev {
				parts[i] = fmt.Sprintf("b%d", rev[len(rev)-1-i])
			}
			return strings.Join(parts, " -> ")
		}
		b := v.p.Blocks[id]
		defines := false
		for i := range b.Code {
			defs, _ := opEffect(&b.Code[i])
			for _, d := range defs {
				if d == s {
					defines = true
				}
			}
		}
		if defines {
			continue
		}
		for _, e := range succEdges(b) {
			if e.defines == s {
				continue
			}
			if _, seen := parent[e.to]; seen {
				continue
			}
			parent[e.to] = id
			queue = append(queue, e.to)
		}
	}
	return "an unreconstructed path"
}

func cloneSet(set map[int]bool) map[int]bool {
	out := make(map[int]bool, len(set))
	for s := range set {
		out[s] = true
	}
	return out
}

// intersectInto removes from dst every slot absent from src, reporting
// whether dst changed.
func intersectInto(dst, src map[int]bool) bool {
	changed := false
	for s := range dst {
		if !src[s] {
			delete(dst, s)
			changed = true
		}
	}
	return changed
}
