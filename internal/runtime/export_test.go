package runtime

import (
	"slices"
	"testing"

	"pyxis/internal/compile"
	"pyxis/internal/rpc"
	"pyxis/internal/val"
)

// What the lifetime tests read of a session's heap, exported to the
// external test package that deploys the TPC-C and TPC-W programs
// (internal/bench imports this package).

// TableCount is the number of query results the heap holds.
func (h *Heap) TableCount() int { return len(h.tabs) }

// LiveTables is the number of table references in the live slots of
// the stack the session last shipped; after a call has ended, 1 if it
// returned a table and 0 otherwise.
func (sn *Session) LiveTables() int { return len(sn.liveTabs) }

// Hosted returns the manager's live sessions.
func (m *SessionManager) Hosted() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Session
	for _, sn := range m.sessions {
		out = append(out, sn)
	}
	return out
}

// LoopProgram is loopWire compiled and fused: L.run(n) calls step, which
// is placed on the DB with the field it updates, n times.
func LoopProgram(tb testing.TB) *compile.Program { return loopWire.compile(tb, true) }

// ConcatPageProgram is concatPageSrc compiled with every statement on
// the APP: P.page(n) builds its page without a transfer.
func ConcatPageProgram(tb testing.TB) *compile.Program { return compileWith(tb, concatPageSrc, nil) }

// FillTables installs dead+live empty tables, the live ones named as
// by a stack the session has just shipped.
func (sn *Session) FillTables(dead, live int) {
	sn.liveTabs = sn.liveTabs[:0]
	for i := 0; i < dead+live; i++ {
		oid := sn.Heap.putTable(sn.Heap.takeTable())
		if i < live {
			sn.liveTabs = append(sn.liveTabs, oid)
		}
	}
}

// SweepTables runs the sweep a transfer ends with.
func (sn *Session) SweepTables() { sn.sweepTables() }

// ShippedStrings decodes req, a transfer to sn, against a copy of the
// stack sn keeps whose slots hold no value, and returns the strings the
// transfer's stack carries. sn is left as it was.
func (sn *Session) ShippedStrings(req []byte) ([]string, error) {
	cp := sn.Peer.NewSession(nil)
	for _, fr := range sn.stack {
		c := *fr
		c.Slots, c.dirty = make([]val.Value, len(fr.Slots)), slices.Clone(fr.dirty)
		cp.stack = append(cp.stack, &c)
	}
	if _, err := cp.decodeTransfer(&rpc.Reader{Buf: req}); err != nil {
		return nil, err
	}
	var out []string
	for _, fr := range cp.stack {
		for _, v := range fr.Slots {
			if v.K == val.Str {
				out = append(out, v.S)
			}
		}
	}
	return out, nil
}
