package runtime

import (
	"errors"
	"fmt"
	"io"

	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// This file implements the control-transfer protocol (paper §6.1-6.2):
// when execution reaches a block placed on the other server, the local
// runtime sends a transfer message naming the next block, carrying the
// program stack, and piggy-backing batched heap synchronization; it
// then blocks until the remote runtime returns control the same way.
// Each session preserves a single logical thread of control; many
// sessions run the protocol concurrently over a multiplexed transport.

// stackV1 is the stack codec's version byte, the first byte of every
// encoded stack. The compile-assigned method index names each frame's
// method, and only the slots live at the frame's resume point travel,
// gated by an explicit per-frame bitmap so the decoder needs no
// liveness information of its own (a program without liveness simply
// sends a full bitmap). Both peers of a deployment come out of one
// compile, so there is one version; any other byte is a corrupt
// transfer.
const stackV1 = 1

// ErrBadTransfer reports a control transfer that does not describe a
// state of this peer's program: a block or method that does not exist,
// a frame resuming in another method's block, a return slot outside
// the caller's frame, heap state of the wrong shape, a message cut
// short (which is rpc.ErrShortBuffer as well). Nothing of the transfer
// has executed.
var ErrBadTransfer = errors.New("runtime: malformed control transfer")

func badTransfer(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadTransfer, fmt.Sprintf(format, args...))
}

// encodeStack serializes the frame stack. resume is the block where
// the top frame resumes on the receiving side; a caller frame resumes
// at its callee's continuation, with the callee's return slot excluded
// from the live set because the return value overwrites it. The tables
// the shipped slots name are left in sn.liveTabs for sweepTables.
func (sn *Session) encodeStack(w *rpc.Writer, stack []*Frame, resume compile.BlockID) {
	prog := sn.Peer.Prog
	sn.liveTabs = sn.liveTabs[:0]
	w.Byte(stackV1)
	w.Uvarint(uint64(len(stack)))
	for i, fr := range stack {
		w.Uvarint(uint64(fr.Method.Idx))
		w.Uvarint(uint64(fr.RetSlot))
		w.Uvarint(uint64(int64(fr.Cont) + 1)) // NoBlock (-1) encodes as 0
		at, skip := resume, -1
		if i < len(stack)-1 {
			at, skip = stack[i+1].Cont, stack[i+1].RetSlot
		}
		var blk *compile.Block
		if at != compile.NoBlock {
			blk = prog.Block(at)
		}
		maskOff := len(w.Buf)
		for j := 0; j < (len(fr.Slots)+7)/8; j++ {
			w.Byte(0)
		}
		for s := range fr.Slots {
			if s == skip || (blk != nil && !blk.LiveAt(s)) {
				continue
			}
			w.Buf[maskOff+s>>3] |= 1 << (uint(s) & 7)
			w.Val(fr.Slots[s])
			if fr.Slots[s].K == val.Table {
				sn.liveTabs = append(sn.liveTabs, fr.Slots[s].OID())
			}
		}
	}
}

// decodeStack reconstructs the frame stack of a transfer that resumes
// at block resume, and checks it against the program before anything
// executes on it: at least one frame; every frame above the bottom one
// returns into a slot of the frame beneath it, at a block of that
// frame's method; the top frame's method owns resume. The bottom
// frame's return slot and continuation are never followed, so its
// continuation need only be NoBlock or a block. Frames come from the
// session's frame pool and go back to it on every error; dead slots
// are left zeroed (liveness guarantees they are written before any
// read).
func (sn *Session) decodeStack(r *rpc.Reader, resume compile.BlockID) ([]*Frame, error) {
	p := sn.Peer
	if v := r.Byte(); r.Err() == nil && v != stackV1 {
		return nil, badTransfer("unknown stack codec version %d", v)
	}
	n := int(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// A frame is at least its three varints, so a depth beyond the bytes
	// left is corrupt, and the slice it sizes is bounded by what arrived.
	if n < 1 || n > (len(r.Buf)-r.Off)/3 {
		return nil, badTransfer("stack depth %d in %d bytes", n, len(r.Buf)-r.Off)
	}
	stack := make([]*Frame, 0, n)
	// fail hands the frames decoded so far back to the pool: a faulted
	// transfer must not shrink it for good.
	fail := func(err error) ([]*Frame, error) {
		sn.freeStack(stack)
		return nil, err
	}
	for i := 0; i < n; i++ {
		idx := r.Uvarint()
		retSlot := r.Uvarint()
		cont := compile.BlockID(int64(r.Uvarint()) - 1)
		if r.Err() != nil {
			return fail(r.Err())
		}
		if idx >= uint64(len(p.Prog.MethodList)) {
			return fail(badTransfer("frame %d names method index %d of %d", i, idx, len(p.Prog.MethodList)))
		}
		if i == 0 {
			if cont != compile.NoBlock && !p.validBlock(cont) {
				return fail(badTransfer("frame 0 continues at block %d of %d", cont, len(p.Prog.Blocks)))
			}
		} else if caller := stack[i-1].Method; p.ownerOf(cont) != caller {
			return fail(badTransfer("frame %d continues at block %d, outside its caller %s", i, cont, caller.QName))
		} else if retSlot >= uint64(caller.NSlots) {
			return fail(badTransfer("frame %d returns into slot %d of %s's %d", i, retSlot, caller.QName, caller.NSlots))
		}
		fr := sn.newFrame(p.Prog.MethodList[idx])
		stack = append(stack, fr) // before any return, so fail frees it
		fr.RetSlot = int(retSlot)
		fr.Cont = cont
		maskOff := r.Off
		for j := 0; j < (fr.Method.NSlots+7)/8; j++ {
			r.Byte()
		}
		if r.Err() != nil {
			return fail(r.Err())
		}
		for s := 0; s < fr.Method.NSlots; s++ {
			if r.Buf[maskOff+s>>3]&(1<<(uint(s)&7)) != 0 {
				fr.Slots[s] = r.Val()
			}
		}
	}
	if r.Err() != nil {
		return fail(r.Err())
	}
	if top := stack[n-1].Method; p.ownerOf(resume) != top {
		return fail(badTransfer("resumes at block %d, outside the top frame's method %s", resume, top.QName))
	}
	return stack, nil
}

// decodeTransfer reads what follows a transfer's resume block: the
// frame stack, then the heap synchronization, which it applies. Every
// failure is ErrBadTransfer, wrapping its cause.
func (sn *Session) decodeTransfer(r *rpc.Reader, resume compile.BlockID) ([]*Frame, error) {
	stack, err := sn.decodeStack(r, resume)
	if err == nil {
		if err = applySync(r, sn.Heap, sn.Peer.Prog.Classes); err != nil {
			sn.freeStack(stack)
		}
	}
	if err == nil {
		return stack, nil
	}
	if !errors.Is(err, ErrBadTransfer) {
		err = fmt.Errorf("%w: %w", ErrBadTransfer, err)
	}
	return nil, err
}

// encodeTransfer writes what follows a transfer's resume block, the
// frame stack and then the pending heap synchronization, and lets go of
// what the session has no further use for: the frames, and every table
// that no shipped live slot names. The sweep comes after encodeSync,
// which may have to serialize a table that is pending sendNative and
// already dead at the resume point.
func (sn *Session) encodeTransfer(w *rpc.Writer, stack []*Frame, resume compile.BlockID) {
	sn.encodeStack(w, stack, resume)
	encodeSync(w, sn.Heap, sn.takePending())
	sn.sweepTables()
	sn.freeStack(stack)
}

// Client drives a partitioned program from the application server: it
// executes APP blocks on its session and transfers control to the DB
// peer over Remote when execution reaches a DB block. Like the session
// it wraps, a Client is a single logical thread of control; run
// multiple Clients (each with its own Session and Remote transport)
// for concurrent load.
type Client struct {
	Sess   *Session
	Remote rpc.Transport
	// OnClose, if set, runs once when Close is called — wiring (e.g. a
	// Deployment) uses it to retire the matching DB-side session.
	OnClose func()

	closed bool
	// enc holds the transfer being sent. A Client is one logical thread
	// of control and Transport.Call does not retain its request, so
	// every transfer is encoded into the same buffer.
	enc rpc.Writer
}

// NewClient wraps an APP-side session and its control-transfer
// transport.
func NewClient(sess *Session, remote rpc.Transport) *Client {
	return &Client{Sess: sess, Remote: remote}
}

// Close releases the client's resources: its control-transfer
// transport, its session's database connection, and (via OnClose) any
// server-side session state. A Client is a single logical thread of
// control, so Close must not race a Call on the same client.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.Remote.Close()
	if serr := c.Sess.Close(); err == nil {
		err = serr
	}
	if c.OnClose != nil {
		c.OnClose()
	}
	return err
}

// NewObject allocates an instance of class on the APP heap and runs
// its (possibly partitioned) constructor.
func (c *Client) NewObject(class string, args ...val.Value) (val.OID, error) {
	ci := c.Sess.Peer.Prog.Classes[class]
	if ci == nil {
		return 0, fmt.Errorf("runtime: unknown class %s", class)
	}
	oid := c.Sess.Heap.NewObject(ci)
	if ci.Ctor == nil {
		if len(args) != 0 {
			return 0, fmt.Errorf("runtime: class %s has no constructor", class)
		}
		return oid, nil
	}
	if _, err := c.invoke(ci.Ctor, oid, args); err != nil {
		return 0, err
	}
	return oid, nil
}

// CallEntry invokes an entry method (paper §5.2 wrapper).
func (c *Client) CallEntry(qname string, this val.OID, args ...val.Value) (val.Value, error) {
	m := c.Sess.Peer.Prog.Method(qname)
	if m == nil {
		return val.Value{}, fmt.Errorf("runtime: unknown method %s", qname)
	}
	if !m.IsEntryPoint {
		return val.Value{}, fmt.Errorf("runtime: %s is not an entry method", qname)
	}
	return c.invoke(m, this, args)
}

// Call invokes any method (used by tests to compare against the
// interpreter on non-entry methods).
func (c *Client) Call(qname string, this val.OID, args ...val.Value) (val.Value, error) {
	m := c.Sess.Peer.Prog.Method(qname)
	if m == nil {
		return val.Value{}, fmt.Errorf("runtime: unknown method %s", qname)
	}
	return c.invoke(m, this, args)
}

func (c *Client) invoke(m *compile.MethodInfo, this val.OID, args []val.Value) (val.Value, error) {
	if len(args) != len(m.Params) {
		return val.Value{}, fmt.Errorf("runtime: %s: want %d args, got %d", m.QName, len(m.Params), len(args))
	}
	sn := c.Sess
	peer := sn.Peer
	fr := sn.newFrame(m)
	fr.Slots[0] = val.ObjV(this)
	for i, a := range args {
		if m.Params[i].K == source.KDouble && a.K == val.Int {
			a = val.DoubleV(float64(a.I))
		}
		fr.Slots[i+1] = a
	}
	stack := []*Frame{fr}
	b := m.Entry
	// fail abandons the entry mid-flight: whatever transaction it opened
	// on the APP-side connection must be rolled back here — the caller
	// only ever sees the error and retries (or gives up) from the top,
	// and an abandoned transaction would pin its row locks until the
	// connection died. Best effort: with no open transaction the
	// rollback is a harmless ErrNoTransaction, and after an engine-side
	// deadlock abort the transaction is already gone.
	fail := func(err error) (val.Value, error) {
		_ = sn.DB.Rollback()
		sn.endCall(val.Value{})
		return val.Value{}, err
	}
	for {
		next, done, ret, outStack, err := sn.Run(b, stack)
		if err != nil {
			sn.freeStack(outStack)
			return fail(err)
		}
		if done {
			sn.endCall(ret)
			return ret, nil
		}
		// Control transfer to the DB peer.
		w := &c.enc
		w.Reset()
		w.I64(int64(next))
		sn.encodeTransfer(w, outStack, next)
		req := w.Buf
		peer.Metrics.Transfers.Add(1)
		peer.Metrics.BytesSent.Add(int64(len(req)))
		if peer.Env != nil {
			peer.Env.TransferSend(pdg.App, len(req))
		}
		resp, err := c.Remote.Call(req)
		rpc.Released(req)
		if err != nil {
			// Transfer failed — admission shed, connection loss, remote
			// decode error, anything. All of them abandon the entry, so
			// all of them roll back (not just ErrOverloaded: a conn-loss
			// exit that kept the transaction open would hold its row
			// locks until the APP-side database connection itself died).
			return fail(fmt.Errorf("runtime: control transfer failed: %w", err))
		}
		peer.Metrics.BytesRecv.Add(int64(len(resp)))
		r := &rpc.Reader{Buf: resp}
		respDone := r.Bool()
		if respDone {
			retv := r.Val()
			if err := applySync(r, sn.Heap, peer.Prog.Classes); err != nil {
				return fail(err)
			}
			if err := r.Err(); err != nil {
				return fail(err)
			}
			sn.endCall(retv)
			return retv, nil
		}
		b = compile.BlockID(int32(r.U32()))
		if stack, err = sn.decodeTransfer(r, b); err != nil {
			return fail(err)
		}
	}
}

// Handler serves the DB side of the control-transfer protocol for one
// client session. Each session gets its own handler; the sessions of
// one peer may be served concurrently. A session's calls are
// sequential and the transport is done with a reply before the next
// call (see rpc.Handler), so the handler encodes every reply into one
// buffer it keeps.
func Handler(sn *Session) rpc.Handler {
	peer := sn.Peer
	var w rpc.Writer
	return func(req []byte) ([]byte, error) {
		// Count the request on entry, like the client counts responses on
		// receipt: malformed or failed transfers moved their bytes over
		// the wire all the same, and a metric that skips them undercounts
		// exactly when fault injection is watching.
		peer.Metrics.BytesRecv.Add(int64(len(req)))
		r := &rpc.Reader{Buf: req}
		b := compile.BlockID(r.I64())
		stack, err := sn.decodeTransfer(r, b)
		if err != nil {
			sn.endCall(val.Value{})
			return nil, err
		}
		next, done, ret, outStack, err := sn.Run(b, stack)
		if err != nil {
			sn.freeStack(outStack)
			sn.endCall(val.Value{})
			return nil, err
		}
		w.Reset()
		w.Bool(done)
		if done {
			w.Val(ret)
			encodeSync(&w, sn.Heap, sn.takePending())
			sn.endCall(ret)
		} else {
			w.U32(uint32(int32(next)))
			sn.encodeTransfer(&w, outStack, next)
		}
		peer.Metrics.Transfers.Add(1)
		peer.Metrics.BytesSent.Add(int64(len(w.Buf)))
		if peer.Env != nil {
			peer.Env.TransferSend(pdg.DB, len(w.Buf))
		}
		return w.Buf, nil
	}
}

// Deployment bundles a complete single-process deployment of one
// partitioned program: an APP peer, a DB peer colocated with the
// database, one primary client session, and the transports between
// them. Additional concurrent sessions are opened with NewSession. It
// is the harness for tests, benchmarks, and the in-process examples;
// internal/deploy wires the same pieces over real multiplexed TCP.
type Deployment struct {
	Prog     *compile.Program
	App      *Peer
	DBPeer   *Peer
	Sessions *SessionManager // DB-side session registry
	Client   *Client         // primary session's client
	DB       *sqldb.DB
	ctlWire  *rpc.InProc
	dbWire   *rpc.InProc
}

// Options configures NewDeployment.
type Options struct {
	// Out receives sys.print output (APP side).
	Out io.Writer
}

// NewDeployment wires a compiled program to a database entirely
// in-process.
func NewDeployment(prog *compile.Program, db *sqldb.DB, opts Options) *Deployment {
	dbPeer := NewPeer(prog, pdg.DB, opts.Out)
	appPeer := NewPeer(prog, pdg.App, opts.Out)

	d := &Deployment{
		Prog:     prog,
		App:      appPeer,
		DBPeer:   dbPeer,
		Sessions: NewSessionManager(dbPeer, func() dbapi.Conn { return dbapi.NewLocal(db) }),
		DB:       db,
	}
	d.Client, d.ctlWire, d.dbWire = d.newSessionWires()
	return d
}

// newSessionWires opens one more client session: an APP-side session
// with its own database wire, and a DB-side session behind its own
// control-transfer wire.
func (d *Deployment) newSessionWires() (*Client, *rpc.InProc, *rpc.InProc) {
	dbHandlerSess := d.DB.NewSession()
	dbWire := rpc.NewInProc(dbapi.SessionHandler(dbHandlerSess), 0)
	appSess := d.App.NewSession(dbapi.NewClient(dbWire))
	sid := d.Sessions.NextID()
	dbSess := d.Sessions.Session(sid)
	ctlWire := rpc.NewInProc(Handler(dbSess), 0)
	c := NewClient(appSess, ctlWire)
	c.OnClose = func() {
		d.Sessions.Close(sid)
		// Mirror the mux path's teardown: a transaction abandoned on
		// the APP-side database wire must not hold row locks forever.
		if dbHandlerSess.InTxn() {
			_ = dbHandlerSess.Rollback()
		}
	}
	return c, ctlWire, dbWire
}

// NewSession opens an additional concurrent client session on the
// deployment. Each returned Client is an independent logical thread of
// control; all of them share the DB-side peer and database. Close the
// client to release its DB-side session (heap, connection, any open
// transaction).
func (d *Deployment) NewSession() *Client {
	c, _, _ := d.newSessionWires()
	return c
}

// WireStats returns (control transfers, app-side DB calls) transport
// statistics for the primary session.
func (d *Deployment) WireStats() (ctl rpc.Stats, db rpc.Stats) {
	return d.ctlWire.Stats(), d.dbWire.Stats()
}

// TotalBytes returns all bytes moved between the two servers by the
// primary session: control transfers plus APP-side database traffic.
func (d *Deployment) TotalBytes() int64 {
	c, db := d.WireStats()
	return c.BytesSent + c.BytesRecv + db.BytesSent + db.BytesRecv
}
