package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"

	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// blockBudget is an Env that stops a run after a number of blocks. A
// mutated slot can turn `while (y > 0)` into 2^62 iterations; how long
// a well-formed transfer runs is the program's business, not the
// decoder's, so the fuzz target gives such an input up instead of
// waiting for it.
type blockBudget struct{ left int }

type budgetSpent struct{}

func (e *blockBudget) BlockExecuted(pdg.Loc, int) {
	if e.left--; e.left < 0 {
		panic(budgetSpent{})
	}
}
func (*blockBudget) DBCall(pdg.Loc)            {}
func (*blockBudget) Sha1(pdg.Loc)              {}
func (*blockBudget) TransferSend(pdg.Loc, int) {}

// FuzzTransferHandler feeds the DB-side control-transfer handler
// arbitrary requests, starting from the real ones the calc and loop
// programs send. A target is a program, fused or not, and whether the
// session first serves the program's first real transfer, so that it
// keeps a stack a request can share frames of (k > 0). Whatever
// arrives, the handler answers with a reply, ErrBadTransfer (nothing
// executed) or a *RunError (the program failed on what the transfer
// carried); it never panics, allocates nothing sized by a count the
// request merely announces, leaves the session's frames — pooled or in
// its kept stack — no fewer than it found them, and leaves its heap no
// table outside its kept stack's live slots (none after an error).
func FuzzTransferHandler(f *testing.F) {
	type target struct {
		peer   *Peer
		budget *blockBudget
		prime  []byte // served before the input, or nil
	}
	var targets []target
	var last []byte
	// later holds the rest of each call, for the primed targets.
	type seed struct {
		which uint8
		req   []byte
	}
	var later []seed
	for _, fuse := range []bool{true, false} {
		for _, p := range []*wireProg{calcWire, loopWire} {
			prog := p.compile(f, fuse)
			reqs := p.transfers(f, prog)
			for _, req := range reqs {
				f.Add(uint8(len(targets)), req)
				last = req
			}
			for _, prime := range [][]byte{nil, reqs[0]} {
				tg := target{NewPeer(prog, pdg.DB, nil), &blockBudget{}, prime}
				tg.peer.Env = tg.budget
				targets = append(targets, tg)
			}
			for _, req := range reqs[1:] {
				later = append(later, seed{uint8(len(targets) - 1), req})
			}
		}
	}
	// A result table behind a real stack (the loop's last transfer, which
	// syncs nothing, on the session that kept the frame it shares): the
	// one sync record the two programs never send.
	w := rpc.Writer{Buf: last}
	w.Buf = w.Buf[:len(w.Buf)-1]
	w.Uvarint(1)
	w.Byte(byte(syncTable))
	w.Uvarint(4)
	w.Uvarint(2)
	w.Str("k")
	w.Str("v")
	w.Uvarint(1)
	w.Vals([]val.Value{val.IntV(1), val.StrV("a")})
	f.Add(uint8(len(targets)-1), w.Buf)
	// The rest of each call on a session that served its first transfer:
	// the loop's second transfer shares the caller frame it kept.
	for _, s := range later {
		f.Add(s.which, s.req)
	}

	db := sqldb.Open()
	f.Fuzz(func(t *testing.T, which uint8, req []byte) {
		tg := targets[int(which)%len(targets)]
		tg.budget.left = 4096
		sn := tg.peer.NewSession(dbapi.NewLocal(db))
		// Frames in the pool, so one the handler loses is missed.
		var primed []*Frame
		for i := 0; i < 8; i++ {
			primed = append(primed, sn.newFrame(tg.peer.Prog.MethodList[0]))
		}
		for _, fr := range primed {
			sn.freeFrame(fr)
		}
		h := Handler(sn)
		if tg.prime != nil {
			if _, err := h(tg.prime); err != nil {
				t.Fatalf("priming transfer: %v", err)
			}
		}
		base := len(sn.framePool) + len(sn.stack)

		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		resp, spent, err := serveWithinBudget(h, req)
		goruntime.ReadMemStats(&after)
		if spent {
			return
		}
		var re *RunError
		switch {
		case err == nil && len(resp) == 0:
			t.Fatal("neither a reply nor an error")
		case err != nil && !errors.Is(err, ErrBadTransfer) && !errors.As(err, &re):
			t.Fatalf("untyped error: %v", err)
		}
		if got := len(sn.framePool) + len(sn.stack); got < base {
			t.Fatalf("frames pooled or kept %d, was %d (err %v)", got, base, err)
		}
		for oid := range sn.Heap.tabs {
			if err != nil || !slices.Contains(sn.liveTabs, oid) {
				t.Fatalf("table %d outlives the transfer (err %v); the kept stack's live slots name %v", oid, err, sn.liveTabs)
			}
		}
		// A frame per three request bytes at most, a heap value per byte:
		// nothing near what a count in the request can announce.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(req)); got > limit {
			t.Fatalf("%d request bytes made the handler allocate %d bytes (limit %d)", len(req), got, limit)
		}
	})
}

// serveWithinBudget calls h(req); spent reports that the peer's
// blockBudget stopped the run. Any other panic is the finding.
func serveWithinBudget(h rpc.Handler, req []byte) (resp []byte, spent bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(budgetSpent); !ok {
				panic(fmt.Sprintf("handler panicked: %v", p))
			}
			spent = true
		}
	}()
	resp, err = h(req)
	return resp, false, err
}
