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
// runtime sends a transfer message naming the next block, carrying what
// the peer lacks of the program stack, and piggy-backing batched heap
// synchronization; it then blocks until the remote runtime returns
// control the same way. Each session preserves a single logical thread
// of control; many sessions run the protocol concurrently over a
// multiplexed transport.
//
// A transfer is
//
//	[resume block uvarint] [stack] [heap sync]
//
// and the stack is a delta against the copy the peer kept from the
// last transfer:
//
//	[stackV2] [n uvarint] [k uvarint]
//	frames 0..k-1, the activations both sides held at the last transfer:
//	    [dirty mask D] [value mask V] [the values in V]
//	frames k..n-1, pushed since:
//	    [method idx] [RetSlot] [Cont+1] [value mask V] [the values in V]
//
// A mask is one bit per slot, (NSlots+7)/8 bytes. D is every slot the
// sender wrote since the peer last had its value (Frame.dirty). V is
// the part of D the receiving side may read before control leaves it
// again — the NeedIn of the frame's resume point when that point is on
// the receiving side, nothing otherwise — plus the live slots holding a
// table, so that a table never outlives, or dies before, the slot that
// names it (sweepTables). A caller frame's return slot never travels:
// the return overwrites it. The receiver truncates its stack to k,
// clears its own dirty bits in D (the sender's values are newer; D is
// what keeps a slot written on both sides from being overwritten by
// the older value when it travels later), and installs V; the sender
// clears V from its dirty bits. A call's first transfer has k = 0.

// stackV2 is the stack codec's version byte. Both peers of a deployment
// come out of one compile, so there is one version; any other byte is a
// corrupt transfer.
const stackV2 = 2

// ErrBadTransfer reports a control transfer that does not describe a
// state of this peer's program: a block or method that does not exist,
// a frame resuming in another method's block, a return slot outside
// the caller's frame, more shared frames than this peer kept, heap
// state of the wrong shape, a message cut short (which is
// rpc.ErrShortBuffer as well) or with bytes after its heap sync.
// Nothing of the transfer has executed, and the session's stack is
// dropped.
var ErrBadTransfer = errors.New("runtime: malformed control transfer")

func badTransfer(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadTransfer, fmt.Sprintf(format, args...))
}

// readMask reads the mask of an n-bit set, (n+7)/8 bytes. It returns
// nil when the message is cut short (r.Err() says so).
func readMask(r *rpc.Reader, n int) []byte {
	nb := (n + 7) / 8
	for j := 0; j < nb; j++ {
		r.Byte()
	}
	if r.Err() != nil {
		return nil
	}
	return r.Buf[r.Off-nb : r.Off]
}

// consumed fails when r has bytes left: the heap sync ends every
// message, so a field the encoder wrote and the decoder skipped shows
// up here.
func consumed(r *rpc.Reader) error {
	if left := len(r.Buf) - r.Off; left != 0 {
		return badTransfer("%d bytes after the heap sync", left)
	}
	return nil
}

// appendZeros appends n zero bytes: room for a mask filled in place.
// (append(b, make([]byte, n)...) allocates in race-instrumented builds.)
func appendZeros(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, 0)
	}
	return b
}

func maskBit(m []byte, s int) bool { return m[s>>3]&(1<<(uint(s)&7)) != 0 }

func anyBit(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return true
		}
	}
	return false
}

// encodeStack serializes the session's stack as a delta against the
// copy the peer kept (see the format above). resume is the block where
// the top frame resumes on the receiving side; a caller frame resumes
// at its callee's continuation. Once written, the whole stack is
// shared (sn.shared). The tables the live slots of the kept stack name
// are left in sn.liveTabs for sweepTables.
func (sn *Session) encodeStack(w *rpc.Writer, resume compile.BlockID) {
	prog := sn.Peer.Prog
	to := prog.Block(resume).Loc
	stack, k := sn.stack, sn.shared
	sn.liveTabs = sn.liveTabs[:0]
	w.Byte(stackV2)
	w.Uvarint(uint64(len(stack)))
	w.Uvarint(uint64(k))
	for i, fr := range stack {
		at, skip := resume, -1
		if i < len(stack)-1 {
			at, skip = stack[i+1].Cont, stack[i+1].RetSlot
		}
		blk := prog.Block(at)
		need := blk.Loc == to
		nb := (len(fr.Slots) + 7) / 8
		dOff := -1
		if i < k {
			dOff = len(w.Buf)
			w.Buf = appendZeros(w.Buf, nb)
		} else {
			w.Uvarint(uint64(fr.Method.Idx))
			w.Uvarint(uint64(fr.RetSlot))
			w.Uvarint(uint64(int64(fr.Cont) + 1)) // NoBlock (-1) encodes as 0
		}
		vOff := len(w.Buf)
		w.Buf = appendZeros(w.Buf, nb)
		for s, v := range fr.Slots {
			tab := v.K == val.Table && s != skip && blk.LiveAt(s)
			if tab {
				sn.liveTabs = append(sn.liveTabs, v.OID())
			}
			if !fr.isDirty(s) {
				continue
			}
			if dOff >= 0 {
				w.Buf[dOff+s>>3] |= 1 << (uint(s) & 7)
			}
			if s == skip || !tab && !(need && blk.NeedAt(s)) {
				continue
			}
			w.Buf[vOff+s>>3] |= 1 << (uint(s) & 7)
			w.Val(v)
			fr.dirty[s>>6] &^= 1 << (uint(s) & 63)
		}
	}
	sn.shared = len(stack)
}

// decodeStack applies a transfer's stack, resuming at block resume, to
// the session's kept stack, and checks it against the program before
// anything executes on it: the shared prefix is no deeper than what
// this peer kept, the stack has at least one frame, every frame pushed
// since the last transfer returns into a slot of the frame beneath it,
// at a block of that frame's method, and the top frame's method owns
// resume. The bottom frame's return slot and continuation are never
// followed, so its continuation need only be NoBlock or a block. Slots
// of a new frame outside V are left zeroed (the receiving side does not
// read them before control leaves it again). On error the caller drops
// the stack.
func (sn *Session) decodeStack(r *rpc.Reader, resume compile.BlockID) error {
	p := sn.Peer
	if v := r.Byte(); r.Err() == nil && v != stackV2 {
		return badTransfer("unknown stack codec version %d", v)
	}
	n, k := r.Uvarint(), r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if k > uint64(len(sn.stack)) {
		return badTransfer("transfer shares %d frames, this peer kept %d", k, len(sn.stack))
	}
	// A new frame is at least its three varints, so a depth beyond the
	// bytes left is corrupt, and the stack it grows is bounded by what
	// arrived.
	if n < 1 || n < k || n-k > uint64(len(r.Buf)-r.Off)/3 {
		return badTransfer("stack depth %d (%d shared) in %d bytes", n, k, len(r.Buf)-r.Off)
	}
	sn.truncStack(int(k))
	for _, fr := range sn.stack {
		d := readMask(r, len(fr.Slots))
		if r.Err() != nil {
			return r.Err()
		}
		for s := range fr.Slots {
			if maskBit(d, s) {
				fr.dirty[s>>6] &^= 1 << (uint(s) & 63)
			}
		}
		if err := readValues(r, fr); err != nil {
			return err
		}
	}
	for i := int(k); i < int(n); i++ {
		idx := r.Uvarint()
		retSlot := r.Uvarint()
		cont := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if idx >= uint64(len(p.Prog.MethodList)) {
			return badTransfer("frame %d names method index %d of %d", i, idx, len(p.Prog.MethodList))
		}
		if cont > uint64(len(p.Prog.Blocks)) {
			return badTransfer("frame %d continues at block %d of %d", i, int64(cont)-1, len(p.Prog.Blocks))
		}
		c := compile.BlockID(int64(cont) - 1)
		if i > 0 {
			if caller := sn.stack[i-1].Method; p.ownerOf(c) != caller {
				return badTransfer("frame %d continues at block %d, outside its caller %s", i, c, caller.QName)
			} else if retSlot >= uint64(caller.NSlots) {
				return badTransfer("frame %d returns into slot %d of %s's %d", i, retSlot, caller.QName, caller.NSlots)
			}
		}
		fr := sn.newFrame(p.Prog.MethodList[idx])
		sn.stack = append(sn.stack, fr) // before any return, so the drop frees it
		clear(fr.dirty)
		fr.RetSlot = int(retSlot)
		fr.Cont = c
		if err := readValues(r, fr); err != nil {
			return err
		}
	}
	if top := sn.stack[n-1].Method; p.ownerOf(resume) != top {
		return badTransfer("resumes at block %d, outside the top frame's method %s", resume, top.QName)
	}
	sn.shared = int(n)
	return nil
}

// readValues reads a frame's value mask and installs the values it
// names.
func readValues(r *rpc.Reader, fr *Frame) error {
	v := readMask(r, len(fr.Slots))
	for s := range fr.Slots {
		if r.Err() != nil {
			return r.Err()
		}
		if maskBit(v, s) {
			fr.Slots[s] = r.Val()
		}
	}
	return r.Err()
}

// decodeTransfer reads a transfer — the resume block, the stack delta,
// then the heap synchronization, which ends the message — and applies
// it to the session. Every failure is ErrBadTransfer, wrapping its
// cause, and drops the stack.
func (sn *Session) decodeTransfer(r *rpc.Reader) (compile.BlockID, error) {
	b := r.Uvarint()
	err := r.Err()
	if err == nil && b >= uint64(len(sn.Peer.Prog.Blocks)) {
		err = badTransfer("resumes at block %d of %d", b, len(sn.Peer.Prog.Blocks))
	}
	if err == nil {
		err = sn.decodeStack(r, compile.BlockID(b))
	}
	if err == nil {
		err = applySync(r, sn.Heap, sn.Peer.Prog.Classes)
	}
	if err == nil {
		err = consumed(r)
	}
	if err == nil {
		return compile.BlockID(b), nil
	}
	sn.truncStack(0)
	if !errors.Is(err, ErrBadTransfer) {
		err = fmt.Errorf("%w: %w", ErrBadTransfer, err)
	}
	return 0, err
}

// encodeTransfer writes a transfer to block resume — the block, the
// stack delta, then the pending heap synchronization — and lets go of
// every table that no live slot of the stack the session keeps names.
// The sweep comes after encodeSync, which may have to serialize a
// table that is pending sendNative and already dead at the resume
// point. It returns the sync records it wrote, valid until the next
// addPending, for Heap.synced once the transfer is delivered.
func (sn *Session) encodeTransfer(w *rpc.Writer, resume compile.BlockID) []pendingSync {
	w.Uvarint(uint64(resume))
	sn.encodeStack(w, resume)
	pend := sn.takePending()
	encodeSync(w, sn.Heap, pend)
	sn.sweepTables()
	return pend
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
	// enc holds the transfer being sent and reply the last one received.
	// A Client is one logical thread of control, Transport.Call does not
	// retain its request and every reply is decoded before the next
	// transfer, so every transfer is encoded into the same buffer and
	// lends the last reply's memory to the next (rpc.CallInto).
	enc   rpc.Writer
	reply []byte
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

// Open has the server admit the client's control session before its
// first call, where Remote can open one (rpc.MuxSession.Open): a
// client whose program can transfer control, and whose constructor
// made no transfer (no reply yet), opens it now; a refusal is
// rpc.ErrOverloaded. A client that never transfers opens none.
func (c *Client) Open() error {
	o, ok := c.Remote.(interface{ Open() error })
	if !ok || c.reply != nil {
		return nil
	}
	for _, b := range c.Sess.Peer.Prog.Blocks {
		if b.Loc == pdg.DB {
			return o.Open()
		}
	}
	return nil
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

// txnHolder is a database connection that knows whether it holds a
// transaction, as dbapi.Client does.
type txnHolder interface{ InTxn() bool }

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
	sn.stack = append(sn.stack, fr)
	b := m.Entry
	// fail abandons the entry mid-flight: whatever transaction it opened
	// on the APP-side connection must be rolled back here — the caller
	// only ever sees the error and retries (or gives up) from the top,
	// and an abandoned transaction would pin its row locks until the
	// connection died. A connection that knows it holds no transaction
	// (dbapi.Client: none begun, or ended by a commit, a rollback or a
	// deadlock abort) is not asked; any other is, best effort.
	fail := func(err error) (val.Value, error) {
		if tx, ok := sn.DB.(txnHolder); !ok || tx.InTxn() {
			_ = sn.DB.Rollback()
		}
		sn.truncStack(0)
		sn.endCall(val.Value{})
		return val.Value{}, err
	}
	for {
		next, done, ret, err := sn.Run(b)
		if err != nil {
			return fail(err)
		}
		if done {
			sn.endCall(ret)
			return ret, nil
		}
		// Control transfer to the DB peer.
		w := &c.enc
		w.Reset()
		sent := sn.encodeTransfer(w, next)
		req := w.Buf
		peer.Metrics.Transfers.Add(1)
		peer.Metrics.BytesSent.Add(int64(len(req)))
		if peer.Env != nil {
			peer.Env.TransferSend(pdg.App, len(req))
		}
		resp, err := rpc.CallInto(c.Remote, req, c.reply)
		rpc.Released(req)
		if err != nil {
			// Transfer failed — admission shed, connection loss, remote
			// decode error, anything. All of them abandon the entry, so
			// all of them roll back (not just ErrOverloaded: a conn-loss
			// exit that kept the transaction open would hold its row
			// locks until the APP-side database connection itself died).
			// The fields the request carried stay marked, so the next
			// sync of their parts ships them again.
			return fail(fmt.Errorf("runtime: control transfer failed: %w", err))
		}
		sn.Heap.synced(sent)
		c.reply = resp
		peer.Metrics.BytesRecv.Add(int64(len(resp)))
		r := &rpc.Reader{Buf: resp}
		if r.Bool() {
			retv := r.Val()
			err := applySync(r, sn.Heap, peer.Prog.Classes)
			if err == nil {
				err = consumed(r)
			}
			if err != nil {
				return fail(err)
			}
			sn.truncStack(0)
			sn.endCall(retv)
			return retv, nil
		}
		if b, err = sn.decodeTransfer(r); err != nil {
			return fail(err)
		}
	}
}

// Handler serves the DB side of the control-transfer protocol for one
// client session. Each session gets its own handler; the sessions of
// one peer may be served concurrently. The session keeps its stack
// from one call to the next: a reply that hands control back leaves
// the stack the APP will share in its next transfer. A session's calls
// are sequential and the transport is done with a reply before the
// next call (see rpc.Handler), so the handler encodes every reply into
// one buffer it keeps.
func Handler(sn *Session) rpc.Handler {
	peer := sn.Peer
	var w rpc.Writer
	return func(req []byte) ([]byte, error) {
		// Count the request on entry, like the client counts responses on
		// receipt: malformed or failed transfers moved their bytes over
		// the wire all the same, and a metric that skips them undercounts
		// exactly when fault injection is watching.
		peer.Metrics.BytesRecv.Add(int64(len(req)))
		b, err := sn.decodeTransfer(&rpc.Reader{Buf: req})
		if err != nil {
			sn.endCall(val.Value{})
			return nil, err
		}
		next, done, ret, err := sn.Run(b)
		if err != nil {
			sn.truncStack(0)
			sn.endCall(val.Value{})
			return nil, err
		}
		w.Reset()
		w.Bool(done)
		// The DB clears its field marks as it replies: a reply that is
		// not delivered ends the connection, and with it this session.
		if done {
			w.Val(ret)
			pend := sn.takePending()
			encodeSync(&w, sn.Heap, pend)
			sn.Heap.synced(pend)
			sn.endCall(ret)
		} else {
			sn.Heap.synced(sn.encodeTransfer(&w, next))
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
	// dbHandlers serves the APP side's database wire, one dbapi.Local
	// per session, keyed like Sessions.
	dbHandlers rpc.SessionHandlers
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

		dbHandlers: dbapi.MuxHandlers(db),
	}
	d.Client, d.ctlWire, d.dbWire = d.newSessionWires()
	return d
}

// newSessionWires opens one more client session: an APP-side session
// with its own database wire, and a DB-side session behind its own
// control-transfer wire.
func (d *Deployment) newSessionWires() (*Client, *rpc.InProc, *rpc.InProc) {
	sid := d.Sessions.NextID()
	dbWire := rpc.NewInProc(d.dbHandlers.Open(sid), 0)
	appSess := d.App.NewSession(dbapi.NewClient(dbWire))
	ctlWire := rpc.NewInProc(Handler(d.Sessions.Session(sid)), 0)
	c := NewClient(appSess, ctlWire)
	c.OnClose = func() {
		// The mux path's teardown: closing each side's connection rolls
		// back a transaction it left open, so no row lock outlives it.
		d.Sessions.Close(sid)
		d.dbHandlers.Closed(sid)
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
