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

// parentTransfers are the requests calcWire and loopWire put on the
// wire at the parent of the commit that removed the version-0 stack
// codec, generated by that commit's code.
var parentTransfers = []struct {
	name string
	prog *wireProg
	fuse bool
	hex  []string
}{
	{"calc/unfused", calcWire, false, []string{
		"01000000000000000101010000ff3f0501000000000000000105000000000000000301000000000000000000000000000000000000030000000001000000000000000400000043616c630201000000010000000000000000010300000000000000080000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000001000000000000000400000043616c630101000000060300000000000000",
		"01000000000000000101010000ff3f050100000000000000010300000000000000030000000000000000000000000000000000000000000000",
	}},
	{"loop/unfused", loopWire, false, []string{
		"01000000000000000102020000ff0e05010000000000000001020000000000000001000000000000000001000000000000000003010000000000000006030000000000000001100000000000000001000000000000000000000001080aff0f0501000000000000000100000000000000000000000000000000000001000000000100000000000000010000004c0201000000010000000000000000",
		"01000000000000000102020000ff0e0501000000000000000102000000000000000101000000000000000100000000000000000301000000000000000603000000000000000110000000000000000101000000000000000101000000000000000101000000000000000001080aff0f0501000000000000000101000000000000000000000000000000000000000000",
	}},
	{"calc/fused", calcWire, true, []string{
		"010000000000000001010100000700050100000000000000010500000000000000030100000000000000030000000001000000000000000400000043616c630201000000010000000000000000010300000000000000080000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000100000000000000000001000000000000000400000043616c630101000000060300000000000000",
		"01000000000000000101010000070005010000000000000001030000000000000003000000000000000000000000",
	}},
	{"loop/fused", loopWire, true, []string{
		"01000000000000000102020000a700050100000000000000010200000000000000010000000000000000060300000000000000010000000000000000010809030005010000000000000001000000000000000001000000000100000000000000010000004c0201000000010000000000000000",
		"01000000000000000102020000a700050100000000000000010200000000000000010100000000000000060300000000000000010100000000000000010809030005010000000000000001010000000000000000000000",
	}},
}

// TestTransferBytesUnchanged: this commit's client sends the parent's
// transfers byte for byte, and the parent's transfers decode here and
// re-encode to themselves.
func TestTransferBytesUnchanged(t *testing.T) {
	for _, tc := range parentTransfers {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog.compile(t, tc.fuse)
			sent := tc.prog.transfers(t, prog)
			if len(sent) != len(tc.hex) {
				t.Fatalf("%d transfers sent, the parent sent %d", len(sent), len(tc.hex))
			}
			sn := NewPeer(prog, pdg.DB, nil).NewSession(dbapi.NewLocal(sqldb.Open()))
			for i, want := range tc.hex {
				if got := hex.EncodeToString(sent[i]); got != want {
					t.Errorf("transfer %d:\n got %s\nwant %s", i, got, want)
				}
				req, err := hex.DecodeString(want)
				if err != nil {
					t.Fatal(err)
				}
				r := &rpc.Reader{Buf: req}
				b := compile.BlockID(r.I64())
				stack, err := sn.decodeStack(r, b)
				if err != nil {
					t.Fatalf("transfer %d: the parent's stack does not decode: %v", i, err)
				}
				var w rpc.Writer
				w.I64(int64(b))
				sn.encodeStack(&w, stack, b)
				sn.freeStack(stack)
				if !bytes.Equal(w.Buf, req[:r.Off]) {
					t.Errorf("transfer %d: block and stack re-encode to\n     %x\nfrom %x", i, w.Buf, req[:r.Off])
				}
				if err := applySync(r, sn.Heap, prog.Classes); err != nil || r.Off != len(req) {
					t.Errorf("transfer %d: heap sync: %v, %d of %d bytes read", i, err, r.Off, len(req))
				}
			}
		})
	}
}

// wireFrame is one frame of a hand-built transfer. Its slots all travel
// as dead (an all-zero mask): these tests are about the structure
// around them.
type wireFrame struct {
	method  uint64
	retSlot uint64
	cont    compile.BlockID
}

// buildTransfer encodes a transfer request to block with the given
// stack and no heap sync.
func buildTransfer(prog *compile.Program, block int64, version byte, frames []wireFrame) []byte {
	var w rpc.Writer
	w.I64(block)
	w.Byte(version)
	w.Uvarint(uint64(len(frames)))
	for _, f := range frames {
		w.Uvarint(f.method)
		w.Uvarint(f.retSlot)
		w.Uvarint(uint64(int64(f.cont) + 1))
		if f.method < uint64(len(prog.MethodList)) {
			for j := 0; j < (prog.MethodList[f.method].NSlots+7)/8; j++ {
				w.Byte(0)
			}
		}
	}
	w.U32(0)
	return w.Buf
}

// TestHandlerRejectsMalformedTransfer: the DB-side handler answers a
// request that names no state of its program with ErrBadTransfer (cut
// short, with rpc.ErrShortBuffer inside) — it used to index the block
// table with the wire's block id and take the server down — keeps its
// frame pool, and serves the next well-formed transfer.
func TestHandlerRejectsMalformedTransfer(t *testing.T) {
	prog := loopWire.compile(t, true)
	run, step := prog.Method("L.run"), prog.Method("L.step")
	good := loopWire.transfers(t, prog)[0]
	// The call site of step inside run, as a real transfer carries it.
	r := &rpc.Reader{Buf: good}
	r.I64()
	sn := NewPeer(prog, pdg.DB, nil).NewSession(dbapi.NewLocal(sqldb.Open()))
	st, err := sn.decodeStack(r, step.Entry)
	if err != nil || len(st) != 2 {
		t.Fatalf("captured transfer: %d frames, %v", len(st), err)
	}
	site := wireFrame{uint64(step.Idx), uint64(st[1].RetSlot), st[1].Cont}
	sn.freeStack(st)
	bottom := wireFrame{uint64(run.Idx), 0, compile.NoBlock}
	withSite := func(f func(*wireFrame)) []wireFrame {
		s := site
		f(&s)
		return []wireFrame{bottom, s}
	}
	nBlocks := int64(len(prog.Blocks))
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
		{"block far out of range", buildTransfer(prog, 1<<20, stackV1, []wireFrame{bottom, site}), ErrBadTransfer},
		{"block one past the end", buildTransfer(prog, nBlocks, stackV1, []wireFrame{bottom, site}), ErrBadTransfer},
		{"negative block", buildTransfer(prog, -1, stackV1, []wireFrame{bottom, site}), ErrBadTransfer},
		{"block of another method", buildTransfer(prog, int64(run.Entry), stackV1, []wireFrame{bottom, site}), ErrBadTransfer},
		{"empty stack", buildTransfer(prog, int64(step.Entry), stackV1, nil), ErrBadTransfer},
		{"version 0", buildTransfer(prog, int64(step.Entry), 0, []wireFrame{bottom, site}), ErrBadTransfer},
		{"unknown method", buildTransfer(prog, int64(step.Entry), stackV1, []wireFrame{bottom, {1 << 20, 0, site.cont}}), ErrBadTransfer},
		{"return slot outside the caller", buildTransfer(prog, int64(step.Entry), stackV1,
			withSite(func(f *wireFrame) { f.retSlot = uint64(run.NSlots) })), ErrBadTransfer},
		{"callee without a continuation", buildTransfer(prog, int64(step.Entry), stackV1,
			withSite(func(f *wireFrame) { f.cont = compile.NoBlock })), ErrBadTransfer},
		{"continuation out of range", buildTransfer(prog, int64(step.Entry), stackV1,
			withSite(func(f *wireFrame) { f.cont = compile.BlockID(nBlocks) })), ErrBadTransfer},
		{"continuation in another method", buildTransfer(prog, int64(step.Entry), stackV1,
			withSite(func(f *wireFrame) { f.cont = step.Entry })), ErrBadTransfer},
		{"bottom continuation out of range", buildTransfer(prog, int64(run.Entry), stackV1,
			[]wireFrame{{uint64(run.Idx), 0, compile.BlockID(nBlocks)}}), ErrBadTransfer},
		{"depth beyond the bytes", append(buildTransfer(prog, int64(step.Entry), stackV1, nil)[:9], 0xff, 0xff, 0x03), ErrBadTransfer},
		{"cut inside the stack", good[:20], rpc.ErrShortBuffer},
	}
	// Heap sync of the wrong shape, behind the well-formed stack.
	syncCase := func(name string, want error, rec func(w *rpc.Writer)) {
		w := rpc.Writer{Buf: buildTransfer(prog, int64(step.Entry), stackV1, []wireFrame{bottom, site})}
		w.Buf = w.Buf[:len(w.Buf)-4]
		w.U32(1)
		rec(&w)
		cases = append(cases, struct {
			name string
			req  []byte
			want error
		}{name, w.Buf, want})
	}
	syncCase("object part of the wrong length", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(byte(syncObjPart))
		w.I64(1)
		w.Str("L")
		w.Byte(byte(pdg.DB))
		w.Vals(make([]val.Value, prog.Classes["L"].NumDB+3))
	})
	syncCase("object part of no side", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(byte(syncObjPart))
		w.I64(1)
		w.Str("L")
		w.Byte(9)
		w.Vals(nil)
	})
	syncCase("unknown class", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(byte(syncObjPart))
		w.I64(1)
		w.Str("Nope")
		w.Byte(byte(pdg.DB))
		w.Vals(nil)
	})
	syncCase("unknown sync kind", ErrBadTransfer, func(w *rpc.Writer) {
		w.Byte(77)
		w.I64(1)
	})
	syncCase("table of four billion columns", rpc.ErrShortBuffer, func(w *rpc.Writer) {
		w.Byte(byte(syncTable))
		w.I64(2)
		w.U32(1<<32 - 1)
	})
	syncCase("table of four billion rows", rpc.ErrShortBuffer, func(w *rpc.Writer) {
		w.Byte(byte(syncTable))
		w.I64(2)
		w.U32(0)
		w.U32(1<<32 - 1)
	})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := h(tc.req)
			if !errors.Is(err, ErrBadTransfer) || !errors.Is(err, tc.want) {
				t.Fatalf("handler returned (%x, %v), want ErrBadTransfer wrapping %v", resp, err, tc.want)
			}
			if got := len(sn.framePool); got < base {
				t.Errorf("frame pool %d, was %d: the rejected transfer kept frames", got, base)
			}
			if _, err := h(good); err != nil {
				t.Errorf("well-formed transfer after the rejection: %v", err)
			}
		})
	}
}
