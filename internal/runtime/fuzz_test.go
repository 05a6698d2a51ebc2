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
// programs send. Whatever arrives, the handler answers with a reply,
// ErrBadTransfer (nothing executed) or a *RunError (the program failed
// on what the transfer carried); it never panics, allocates nothing
// sized by a count the request merely announces, leaves the session's
// frame pool no smaller than it found it, and leaves its heap no table
// but those the live slots of the reply name (none after an error).
func FuzzTransferHandler(f *testing.F) {
	type target struct {
		peer   *Peer
		budget *blockBudget
	}
	var targets []target
	var last []byte
	for _, fuse := range []bool{true, false} {
		for _, p := range []*wireProg{calcWire, loopWire} {
			prog := p.compile(f, fuse)
			for _, req := range p.transfers(f, prog) {
				f.Add(uint8(len(targets)), req)
				last = req
			}
			tg := target{NewPeer(prog, pdg.DB, nil), &blockBudget{}}
			tg.peer.Env = tg.budget
			targets = append(targets, tg)
		}
	}
	// A result table behind a real stack (the loop's last transfer, which
	// syncs nothing): the one sync record the two programs never send.
	w := rpc.Writer{Buf: last}
	w.Buf = w.Buf[:len(w.Buf)-4]
	w.U32(1)
	w.Byte(byte(syncTable))
	w.I64(4)
	w.U32(2)
	w.Str("k")
	w.Str("v")
	w.U32(1)
	w.Vals([]val.Value{val.IntV(1), val.StrV("a")})
	f.Add(uint8(len(targets)-1), w.Buf)

	db := sqldb.Open()
	f.Fuzz(func(t *testing.T, which uint8, req []byte) {
		tg := targets[int(which)%len(targets)]
		tg.budget.left = 4096
		sn := tg.peer.NewSession(dbapi.NewLocal(db))
		// Frames in the pool, so one the handler keeps is missed.
		var primed []*Frame
		for i := 0; i < 8; i++ {
			primed = append(primed, sn.newFrame(tg.peer.Prog.MethodList[0]))
		}
		sn.freeStack(primed)
		base := len(sn.framePool)

		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		resp, spent, err := serveWithinBudget(Handler(sn), req)
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
		if got := len(sn.framePool); got < base {
			t.Fatalf("frame pool %d, was %d (err %v)", got, base, err)
		}
		for oid := range sn.Heap.tabs {
			if err != nil || !slices.Contains(sn.liveTabs, oid) {
				t.Fatalf("table %d outlives the transfer (err %v); the reply's live slots name %v", oid, err, sn.liveTabs)
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
