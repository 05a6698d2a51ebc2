package runtime

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Tests on the bytes of a control transfer: that they are the parent
// commit's bytes, and that a request which is not a transfer of this
// program is an error and not a panic.

// placeOnDB places the named methods of class (entry and every
// statement) and the named fields on the database server: a placement
// one can read off the call, for tests that pin transfer bytes.
func placeOnDB(class string, methods []string, fields ...string) func(g *pdg.Graph, place pdg.Placement) {
	return func(g *pdg.Graph, place pdg.Placement) {
		for id, f := range g.Prog.Fields {
			for _, name := range fields {
				if f.Name == name {
					place[id] = pdg.DB
				}
			}
		}
		for _, name := range methods {
			m := g.Prog.Method(class, name)
			source.WalkMethodStmts(m, func(s source.Stmt) bool {
				place[s.ID()] = pdg.DB
				return true
			})
			place[m.EntryID] = pdg.DB
		}
	}
}

// wireProg is a program at a fixed placement with the calls that make
// it transfer control: what these tests and FuzzTransferHandler take
// their transfers from.
type wireProg struct {
	src, class string
	place      func(g *pdg.Graph, place pdg.Placement)
	calls      []diffCall
}

var (
	// calcWire has apply and its field on the DB: one-frame transfers
	// carrying an object part.
	calcWire = &wireProg{calcSrc, "Calc", placeOnDB("Calc", []string{"apply"}, "acc"), []diffCall{
		{"Calc.apply", []val.Value{val.IntV(5), val.BoolV(true)}},
		{"Calc.apply", []val.Value{val.IntV(3), val.BoolV(false)}},
	}}
	// loopWire has the callee step on the DB: two-frame transfers.
	loopWire = &wireProg{diffLoopSrc, "L", placeOnDB("L", []string{"step"}, "total"), []diffCall{
		{"L.run", []val.Value{val.IntV(2)}},
	}}
)

func (p *wireProg) compile(tb testing.TB, fuse bool) *compile.Program {
	tb.Helper()
	prog := compileWith(tb, p.src, p.place)
	if fuse {
		compile.Fuse(prog)
	}
	return prog
}

// recTransport records every request that crosses it.
type recTransport struct {
	rpc.Transport
	reqs [][]byte
}

func (t *recTransport) Call(req []byte) ([]byte, error) {
	t.reqs = append(t.reqs, bytes.Clone(req))
	return t.Transport.Call(req)
}

// transfers runs p's calls on a fresh deployment of prog, which is p
// compiled, and returns the transfer requests its client sent.
func (p *wireProg) transfers(tb testing.TB, prog *compile.Program) [][]byte {
	tb.Helper()
	dep := NewDeployment(prog, sqldb.Open(), Options{})
	rec := &recTransport{Transport: dep.Client.Remote}
	dep.Client.Remote = rec
	oid, err := dep.Client.NewObject(p.class)
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range p.calls {
		if _, err := dep.Client.CallEntry(c.method, oid, c.args...); err != nil {
			tb.Fatal(err)
		}
	}
	return rec.reqs
}

// pinnedTransfers are the requests calcWire and loopWire put on the
// wire with the delta stack codec (stackV2) and field-granular heap
// sync. A loop call's second transfer shares the caller frame (k = 1)
// and ships only its dirty slots the DB side reads.
var pinnedTransfers = []struct {
	name string
	prog *wireProg
	fuse bool
	hex  []string
}{
	{"calc/unfused", calcWire, false, []string{
		"01020100010000ff3f05010000000000000001050000000000000003010000000000000000000000000000000000000300010400000043616c63020101000000000000000001030800000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000000010400000043616c630101060300000000000000",
		"01020100010000ff3f050100000000000000010300000000000000030000000000000000000000000000000000000000",
	}},
	{"loop/unfused", loopWire, false, []string{
		"01020200020000000001080aff0f05010000000000000001000000000000000000000000000000000000010001010000004c0201010000000000000000",
		"01020201ff0f000001080aff0f0501000000000000000101000000000000000000000000000000000000",
	}},
	{"calc/fused", calcWire, true, []string{
		"0102010001000007000501000000000000000105000000000000000301000000000000000300010400000043616c63020101000000000000000001030800000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000001000000000000000000010400000043616c630101060300000000000000",
		"01020100010000070005010000000000000001030000000000000003000000000000000000",
	}},
	{"loop/fused", loopWire, true, []string{
		"0102020002000000000108090300050100000000000000010000000000000000010001010000004c0201010000000000000000",
		"01020201ff0e0000010809030005010000000000000001010000000000000000",
	}},
}

// TestTransferBytesUnchanged: the client sends the pinned transfers
// byte for byte, and a fresh DB session served the pinned requests in
// order decodes every one of them to its last byte (a request with
// bytes left over is ErrBadTransfer) and answers it.
func TestTransferBytesUnchanged(t *testing.T) {
	for _, tc := range pinnedTransfers {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog.compile(t, tc.fuse)
			sent := tc.prog.transfers(t, prog)
			if len(sent) != len(tc.hex) {
				t.Fatalf("%d transfers sent, %d pinned", len(sent), len(tc.hex))
			}
			h := Handler(NewPeer(prog, pdg.DB, nil).NewSession(dbapi.NewLocal(sqldb.Open())))
			for i, want := range tc.hex {
				if got := hex.EncodeToString(sent[i]); got != want {
					t.Errorf("transfer %d:\n got %s\nwant %s", i, got, want)
				}
				req, err := hex.DecodeString(want)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h(req); err != nil {
					t.Errorf("transfer %d: the pinned request does not serve: %v", i, err)
				}
			}
		})
	}
}

// wireFrame is one frame of a hand-built transfer. Its slots all travel
// as not read (an all-zero value mask): these tests are about the
// structure around them.
type wireFrame struct {
	method  uint64
	retSlot uint64
	cont    compile.BlockID
}

// buildTransfer encodes a transfer request to block with the given
// stack, none of it shared, and no heap sync.
func buildTransfer(prog *compile.Program, block uint64, version byte, frames []wireFrame) []byte {
	var w rpc.Writer
	w.Uvarint(block)
	w.Byte(version)
	w.Uvarint(uint64(len(frames)))
	w.Uvarint(0)
	for _, f := range frames {
		w.Uvarint(f.method)
		w.Uvarint(f.retSlot)
		w.Uvarint(uint64(int64(f.cont) + 1))
		if f.method < uint64(len(prog.MethodList)) {
			w.Buf = appendZeros(w.Buf, (prog.MethodList[f.method].NSlots+7)/8)
		}
	}
	w.Uvarint(0)
	return w.Buf
}

// stackHeader encodes a transfer to block up to its stack's depth n and
// shared prefix k, with nothing after them.
func stackHeader(block compile.BlockID, n, k uint64) []byte {
	var w rpc.Writer
	w.Uvarint(uint64(block))
	w.Byte(stackV2)
	w.Uvarint(n)
	w.Uvarint(k)
	return w.Buf
}

// TestHandlerRejectsMalformedTransfer: the DB-side handler answers a
// request that names no state of its program with ErrBadTransfer (cut
// short, with rpc.ErrShortBuffer inside) — it used to index the block
// table with the wire's block id and take the server down — keeps its
// frames (pooled or in the kept stack), and serves the next well-formed
// transfer.
func TestHandlerRejectsMalformedTransfer(t *testing.T) {
	prog := loopWire.compile(t, true)
	run, step := prog.Method("L.run"), prog.Method("L.step")
	good := loopWire.transfers(t, prog)[0]
	// The call site of step inside run, as a real transfer carries it.
	sn := NewPeer(prog, pdg.DB, nil).NewSession(dbapi.NewLocal(sqldb.Open()))
	if _, err := sn.decodeTransfer(&rpc.Reader{Buf: good}); err != nil || len(sn.stack) != 2 {
		t.Fatalf("captured transfer: %d frames, %v", len(sn.stack), err)
	}
	site := wireFrame{uint64(step.Idx), uint64(sn.stack[1].RetSlot), sn.stack[1].Cont}
	sn.truncStack(0)
	bottom := wireFrame{uint64(run.Idx), 0, compile.NoBlock}
	withSite := func(f func(*wireFrame)) []wireFrame {
		s := site
		f(&s)
		return []wireFrame{bottom, s}
	}
	nBlocks := uint64(len(prog.Blocks))
	entry := uint64(step.Entry)
	h := Handler(sn)
	base := len(sn.framePool)
	if base == 0 {
		t.Fatal("frame pool empty; the test needs pooled frames to watch")
	}

	cases := []struct {
		name string
		req  []byte
		want error
	}{
		{"block far out of range", buildTransfer(prog, 1<<20, stackV2, []wireFrame{bottom, site}), ErrBadTransfer},
		{"block one past the end", buildTransfer(prog, nBlocks, stackV2, []wireFrame{bottom, site}), ErrBadTransfer},
		// -1 as the v1 header's int64 carried it.
		{"negative block", buildTransfer(prog, ^uint64(0), stackV2, []wireFrame{bottom, site}), ErrBadTransfer},
		{"block of another method", buildTransfer(prog, uint64(run.Entry), stackV2, []wireFrame{bottom, site}), ErrBadTransfer},
		{"empty stack", buildTransfer(prog, entry, stackV2, nil), ErrBadTransfer},
		{"version 0", buildTransfer(prog, entry, 0, []wireFrame{bottom, site}), ErrBadTransfer},
		{"unknown method", buildTransfer(prog, entry, stackV2, []wireFrame{bottom, {1 << 20, 0, site.cont}}), ErrBadTransfer},
		{"return slot outside the caller", buildTransfer(prog, entry, stackV2,
			withSite(func(f *wireFrame) { f.retSlot = uint64(run.NSlots) })), ErrBadTransfer},
		{"callee without a continuation", buildTransfer(prog, entry, stackV2,
			withSite(func(f *wireFrame) { f.cont = compile.NoBlock })), ErrBadTransfer},
		{"continuation out of range", buildTransfer(prog, entry, stackV2,
			withSite(func(f *wireFrame) { f.cont = compile.BlockID(nBlocks) })), ErrBadTransfer},
		{"continuation in another method", buildTransfer(prog, entry, stackV2,
			withSite(func(f *wireFrame) { f.cont = step.Entry })), ErrBadTransfer},
		{"bottom continuation out of range", buildTransfer(prog, uint64(run.Entry), stackV2,
			[]wireFrame{{uint64(run.Idx), 0, compile.BlockID(nBlocks)}}), ErrBadTransfer},
		{"depth beyond the bytes", stackHeader(step.Entry, 1<<16-1, 0), ErrBadTransfer},
		// The handler keeps at most run's frame between transfers.
		{"shared frames beyond the kept stack", append(stackHeader(step.Entry, 3, 3), make([]byte, 16)...), ErrBadTransfer},
		{"shared prefix deeper than the stack", stackHeader(step.Entry, 1, 2), ErrBadTransfer},
		// Block, version, depth, shared prefix, then frame 0 cut after
		// its method index and return slot.
		{"cut inside the stack", good[:16], rpc.ErrShortBuffer},
		{"bytes after the heap sync", append(bytes.Clone(good), 0), ErrBadTransfer},
	}
	// Heap sync of the wrong shape, behind the well-formed stack.
	syncCase := func(name string, want error, rec func(w *rpc.Writer)) {
		w := rpc.Writer{Buf: buildTransfer(prog, entry, stackV2, []wireFrame{bottom, site})}
		w.Buf = w.Buf[:len(w.Buf)-1]
		w.Uvarint(1)
		rec(&w)
		cases = append(cases, struct {
			name string
			req  []byte
			want error
		}{name, w.Buf, want})
	}
	syncCase("object part of the wrong length", ErrBadTransfer, func(w *rpc.Writer) {
		n := prog.Classes["L"].NumDB
		if n%8 == 0 {
			t.Fatalf("L's DB part has %d fields: its mask has no bit past the part", n)
		}
		w.Byte(byte(syncObjPart))
		w.Uvarint(1)
		w.Str("L")
		w.Byte(byte(pdg.DB))
		w.Buf = appendZeros(w.Buf, (n+7)/8)
		w.Buf[len(w.Buf)-1] = 0xff // fields n.. are past the part
		w.Buf = appendZeros(w.Buf, 8*9)
	})
	syncCase("object part of no side", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(byte(syncObjPart))
		w.Uvarint(1)
		w.Str("L")
		w.Byte(9)
	})
	syncCase("unknown class", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(byte(syncObjPart))
		w.Uvarint(1)
		w.Str("Nope")
		w.Byte(byte(pdg.DB))
	})
	syncCase("unknown sync kind", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(77)
		w.Uvarint(1)
	})
	syncCase("table of four billion columns", rpc.ErrShortBuffer, func(w *rpc.Writer) {
		w.Byte(byte(syncTable))
		w.Uvarint(2)
		w.U32(1<<32 - 1)
	})
	syncCase("table of four billion rows", rpc.ErrShortBuffer, func(w *rpc.Writer) {
		w.Byte(byte(syncTable))
		w.Uvarint(2)
		w.U32(0)
		w.U32(1<<32 - 1)
	})
	syncCase("more sync records than bytes", ErrBadTransfer, func(w *rpc.Writer) {
		w.Buf = w.Buf[:len(w.Buf)-1]
		w.Uvarint(1 << 40)
	})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := h(tc.req)
			if !errors.Is(err, ErrBadTransfer) || !errors.Is(err, tc.want) {
				t.Fatalf("handler returned (%x, %v), want ErrBadTransfer wrapping %v", resp, err, tc.want)
			}
			if got := len(sn.framePool) + len(sn.stack); got < base {
				t.Errorf("frames pooled or kept %d, was %d: the rejected transfer lost frames", got, base)
			}
			if _, err := h(good); err != nil {
				t.Errorf("well-formed transfer after the rejection: %v", err)
			}
		})
	}
}
