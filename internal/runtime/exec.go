package runtime

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Env observes and charges execution costs. The discrete-event
// simulator implements it to account virtual CPU and network time;
// real deployments leave it nil. A peer's Env is invoked from every
// session the peer hosts: when sessions run on concurrent goroutines
// the implementation must be safe for concurrent use (the simulator's
// is exempt — it schedules all virtual clients on one goroutine).
type Env interface {
	// BlockExecuted is called after each block with its instruction count.
	BlockExecuted(side pdg.Loc, instrs int)
	// DBCall is called before each database operation issued on side.
	DBCall(side pdg.Loc)
	// Sha1 is called per sys.sha1 invocation (CPU-intensive work unit).
	Sha1(side pdg.Loc)
	// TransferSend is called when a control-transfer message of the
	// given size leaves the peer.
	TransferSend(from pdg.Loc, bytes int)
}

// Metrics counts a peer's activity, aggregated across every session it
// hosts. All counters are atomic: sessions update them concurrently.
type Metrics struct {
	Transfers atomic.Int64
	BytesSent atomic.Int64
	BytesRecv atomic.Int64
	DBCalls   atomic.Int64
	Blocks    atomic.Int64
	Instrs    atomic.Int64
}

// MetricsSnapshot is a plain copy of Metrics at one instant.
type MetricsSnapshot struct {
	Transfers, BytesSent, BytesRecv, DBCalls, Blocks, Instrs int64
}

// Snapshot reads every counter.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Transfers: m.Transfers.Load(),
		BytesSent: m.BytesSent.Load(),
		BytesRecv: m.BytesRecv.Load(),
		DBCalls:   m.DBCalls.Load(),
		Blocks:    m.Blocks.Load(),
		Instrs:    m.Instrs.Load(),
	}
}

// Peer is one side of a partitioned deployment: the compiled program
// and the side-wide execution environment, shared by every session the
// side hosts. Per-session state (heap, frame stack, database
// connection, pending sync) lives in Session; a Peer plus N Sessions
// serves N concurrent logical threads of control over one program.
type Peer struct {
	Prog *compile.Program
	Side pdg.Loc
	// Out receives sys.print output from every session; writes are
	// serialized by the peer, so any io.Writer is safe.
	Out io.Writer
	Env Env

	Metrics Metrics

	outMu sync.Mutex
	// owner[b] is the method whose frame executes block b (nil for a
	// block no method reaches): what an incoming transfer's blocks are
	// checked against before they index a frame.
	owner []*compile.MethodInfo
}

// NewPeer creates the shared engine for one side. prog must not change
// afterwards.
func NewPeer(prog *compile.Program, side pdg.Loc, out io.Writer) *Peer {
	if out == nil {
		out = io.Discard
	}
	return &Peer{Prog: prog, Side: side, Out: out, owner: blockOwners(prog)}
}

// blockOwners walks each method's blocks from its entry, never into
// callees: compiled programs share no block between methods, so the
// first method to reach a block owns it.
func blockOwners(prog *compile.Program) []*compile.MethodInfo {
	owner := make([]*compile.MethodInfo, len(prog.Blocks))
	var work []compile.BlockID
	for _, m := range prog.MethodList {
		work = append(work[:0], m.Entry)
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			if id < 0 || int(id) >= len(owner) || owner[id] != nil {
				continue
			}
			owner[id] = m
			switch t := &prog.Blocks[id].Term; t.Kind {
			case compile.TGoto:
				work = append(work, t.Target)
			case compile.TIf:
				work = append(work, t.Then, t.Else)
			case compile.TCall:
				work = append(work, t.Cont)
			}
		}
	}
	return owner
}

func (p *Peer) validBlock(b compile.BlockID) bool {
	return b >= 0 && int(b) < len(p.Prog.Blocks)
}

// ownerOf returns the method that owns block b, nil when b is not a
// block or no method reaches it.
func (p *Peer) ownerOf(b compile.BlockID) *compile.MethodInfo {
	if !p.validBlock(b) {
		return nil
	}
	return p.owner[b]
}

// stmtID is the number a database instruction's statement runs under:
// its SQLID when that names the instruction's text in the program's
// statement table, else -1 (unnumbered; a hand-built instruction
// carries no id).
func (p *Peer) stmtID(in *compile.Instr) int {
	if id := int(in.SQLID); id >= 0 && id < len(p.Prog.SQLTable) && p.Prog.SQLTable[id] == in.SQL {
		return id
	}
	return -1
}

// Session is one logical client's state on a peer: its half of the
// distributed heap, its copy of the frame stack, its database
// connection (embedded on the DB side, wire client on the APP side),
// and the heap synchronization pending for its next control transfer.
// The stack outlives a transfer on both sides: a transfer names how
// many frames the peer already holds and ships only the slots of those
// frames that changed and will be read (transfer.go). A Session
// preserves the paper's single logical thread of control — it must not
// be used from more than one goroutine at a time — but distinct
// Sessions on the same Peer run fully concurrently.
type Session struct {
	Peer *Peer
	DB   dbapi.Conn
	Heap *Heap

	// into is DB when it writes a query's result into a table the heap
	// recycles.
	into dbapi.IntoConn
	// stack is the session's frame stack, bottom first. The APP keeps it
	// for the length of a call, the DB from one transfer to the next (a
	// call's first transfer shares no frame, so a DB stack left by a
	// finished call is dropped then).
	stack []*Frame
	// shared is how many bottom frames of stack both sides held at the
	// last transfer; the next one ships only the changed slots of those
	// frames. Frames are only pushed and popped in between, so it is a
	// low-water mark: a pop or a truncation below it lowers it.
	shared int
	// framePool recycles activation records (capped at framePoolCap);
	// see newFrame/freeFrame.
	framePool []*Frame
	// argbuf is the database-call argument scratch; the engine consumes
	// arguments by value during the (synchronous) call, so one slice per
	// session suffices.
	argbuf []val.Value

	// pending and pendSet are reused from transfer to transfer: a
	// transfer serializes pending before anything is added to it again.
	pending []pendingSync
	pendSet map[pendingSync]bool
	// liveTabs names the tables the session may still read: what
	// encodeStack found in the live slots of the stack it keeps, or a
	// finished call's return value. See sweepTables.
	liveTabs []val.OID
}

// NewSession creates a session on p using the given database
// connection (which the session owns: one connection = one
// transaction context).
func (p *Peer) NewSession(db dbapi.Conn) *Session {
	sn := &Session{Peer: p, DB: db, Heap: NewHeap(p.Side), pendSet: map[pendingSync]bool{}}
	sn.into, _ = db.(dbapi.IntoConn)
	return sn
}

func (sn *Session) addPending(ps pendingSync) {
	if sn.pendSet[ps] {
		return
	}
	sn.pendSet[ps] = true
	sn.pending = append(sn.pending, ps)
}

// takePending returns the pending set and empties it. The slice is
// valid until the next addPending.
func (sn *Session) takePending() []pendingSync {
	out := sn.pending
	sn.pending = sn.pending[:0]
	clear(sn.pendSet)
	return out
}

// sweepTables frees every table outside liveTabs to the heap's free
// list. A table reference sits only in a frame slot (source.Check and
// the verifier's scope check keep it out of fields and arrays), so a
// table that no live slot of the stack this peer keeps names cannot be
// read again here. A live slot holding a table travels whenever its
// sender wrote it, so the kept slot names the table the peer's latest
// value names, and a table that arrived by sendNative is named by the
// slot that arrived with it. Both peers sweep by the stacks they keep,
// so no release is ever sent: a table the other side dropped leaves
// here with the next transfer after the slot stops naming it, and the
// tables of a call the other side abandoned leave when the next call's
// first transfer replaces the stack.
func (sn *Session) sweepTables() {
	for oid, t := range sn.Heap.tabs {
		if !slices.Contains(sn.liveTabs, oid) {
			delete(sn.Heap.tabs, oid)
			sn.Heap.freeTable(t)
		}
	}
}

// endCall frees the tables of a call whose outermost frame returned
// ret, or that was abandoned (ret is the zero Value): with no frame
// left only a returned table is still reachable, by the caller of
// Client.Call. A freed table still pending sendNative dies unsent.
func (sn *Session) endCall(ret val.Value) {
	sn.liveTabs = sn.liveTabs[:0]
	if ret.K == val.Table {
		sn.liveTabs = append(sn.liveTabs, ret.OID())
	}
	sn.sweepTables()
	kept := sn.pending[:0]
	for _, ps := range sn.pending {
		if ps.kind == syncTable && sn.Heap.tabs[ps.oid] == nil {
			delete(sn.pendSet, ps)
			continue
		}
		kept = append(kept, ps)
	}
	sn.pending = kept
}

// Close releases the session's database connection.
func (sn *Session) Close() error {
	if sn.DB == nil {
		return nil
	}
	return sn.DB.Close()
}

// Frame is one activation record. RetSlot/Cont say where the caller
// resumes when this frame returns.
type Frame struct {
	Method  *compile.MethodInfo
	Slots   []val.Value
	RetSlot int
	Cont    compile.BlockID
	// dirty marks the slots this side wrote since the peer last had
	// their value (word s>>6, bit s&63): what a transfer may ship.
	dirty []uint64
}

// markDirty ORs a block's Defs into the frame; nil Defs (not computed)
// mark every slot.
func (fr *Frame) markDirty(defs []uint64) {
	if defs == nil {
		for i := range fr.dirty {
			fr.dirty[i] = ^uint64(0)
		}
		return
	}
	for i, w := range defs {
		fr.dirty[i] |= w
	}
}

func (fr *Frame) isDirty(s int) bool { return fr.dirty[s>>6]&(1<<(uint(s)&63)) != 0 }

// framePoolCap bounds the per-session free list of activation records.
const framePoolCap = 64

// newFrame returns a zeroed activation record for m, every slot dirty,
// recycling from the session pool when possible.
func (sn *Session) newFrame(m *compile.MethodInfo) *Frame {
	var fr *Frame
	if n := len(sn.framePool); n > 0 {
		fr = sn.framePool[n-1]
		sn.framePool[n-1] = nil
		sn.framePool = sn.framePool[:n-1]
	} else {
		fr = new(Frame)
	}
	fr.Method, fr.RetSlot, fr.Cont = m, 0, compile.NoBlock
	fr.Slots = slices.Grow(fr.Slots[:0], m.NSlots)[:m.NSlots]
	clear(fr.Slots)
	fr.dirty = slices.Grow(fr.dirty[:0], (m.NSlots+63)/64)[:(m.NSlots+63)/64]
	fr.markDirty(nil)
	return fr
}

// freeFrame returns fr to the pool. Callers must hold no live
// reference: a frame is freed only after its method returned, or when
// a transfer or a failure drops it from the session's stack.
func (sn *Session) freeFrame(fr *Frame) {
	if len(sn.framePool) >= framePoolCap {
		return
	}
	fr.Method = nil
	sn.framePool = append(sn.framePool, fr)
}

// truncStack frees the frames of the session's stack above depth n.
func (sn *Session) truncStack(n int) {
	for _, fr := range sn.stack[n:] {
		sn.freeFrame(fr)
	}
	clear(sn.stack[n:])
	sn.stack = sn.stack[:n]
	sn.shared = min(sn.shared, n)
}

// dbArgs returns the session's argument scratch, n elements long.
func (sn *Session) dbArgs(n int) []val.Value {
	if cap(sn.argbuf) < n {
		sn.argbuf = make([]val.Value, n)
	}
	return sn.argbuf[:n]
}

// RunError is a runtime failure inside partitioned code.
type RunError struct{ Msg string }

func (e *RunError) Error() string { return "runtime: " + e.Msg }

func runErr(format string, args ...any) error {
	return &RunError{Msg: fmt.Sprintf(format, args...)}
}

// Run executes blocks of the session's stack starting at b until
// control leaves this side (done=false, next=remote block) or the
// bottom frame returns (done=true with the return value, the stack
// empty). Every slot a block or a return writes is marked dirty in its
// frame. After an error the stack is as the failing block left it.
func (sn *Session) Run(b compile.BlockID) (next compile.BlockID, done bool, ret val.Value, err error) {
	p := sn.Peer
	// Counters batch into the shared atomic metrics once per Run: the
	// block loop is the interpreter's hot path and per-block atomic
	// traffic measurably slows single-session latency.
	var blocks, instrs int64
	defer func() {
		if blocks > 0 {
			p.Metrics.Blocks.Add(blocks)
			p.Metrics.Instrs.Add(instrs)
		}
	}()
	for {
		blk := p.Prog.Block(b)
		if blk.Loc != p.Side {
			return b, false, val.Value{}, nil
		}
		fr := sn.stack[len(sn.stack)-1]
		for i := range blk.Code {
			if err := sn.exec(&blk.Code[i], fr); err != nil {
				return 0, false, val.Value{}, err
			}
		}
		fr.markDirty(blk.Defs)
		blocks++
		instrs += int64(len(blk.Code))
		if p.Env != nil {
			p.Env.BlockExecuted(p.Side, len(blk.Code))
		}
		switch blk.Term.Kind {
		case compile.TGoto:
			b = blk.Term.Target
		case compile.TIf:
			if fr.Slots[blk.Term.Cond].AsBool() {
				b = blk.Term.Then
			} else {
				b = blk.Term.Else
			}
		case compile.TCall:
			callee := blk.Term.Method
			nf := sn.newFrame(callee)
			nf.RetSlot = blk.Term.RetSlot
			nf.Cont = blk.Term.Cont
			for i, src := range blk.Term.Args {
				nf.Slots[i] = fr.Slots[src]
			}
			sn.stack = append(sn.stack, nf)
			b = callee.Entry
		case compile.TRet:
			var v val.Value
			if blk.Term.Val >= 0 {
				v = fr.Slots[blk.Term.Val]
			} else {
				v = fr.Method.Ret.Zero()
			}
			sn.stack[len(sn.stack)-1] = nil
			sn.stack = sn.stack[:len(sn.stack)-1]
			sn.shared = min(sn.shared, len(sn.stack))
			if len(sn.stack) == 0 {
				sn.freeFrame(fr)
				return 0, true, v, nil
			}
			caller := sn.stack[len(sn.stack)-1]
			caller.Slots[fr.RetSlot] = v
			caller.dirty[fr.RetSlot>>6] |= 1 << (uint(fr.RetSlot) & 63)
			b = fr.Cont
			sn.freeFrame(fr)
		}
	}
}

func (sn *Session) exec(in *compile.Instr, fr *Frame) error {
	p := sn.Peer
	s := fr.Slots
	switch in.Op {
	case compile.OpConst:
		s[in.A] = in.Lit
	case compile.OpMove:
		s[in.A] = s[in.B]
	case compile.OpConv:
		s[in.A] = val.DoubleV(s[in.B].AsFloat())
	case compile.OpBin:
		v, err := binOp(source.BinOp(in.Sub), s[in.B], s[in.C])
		if err != nil {
			return err
		}
		s[in.A] = v
	case compile.OpUn:
		switch source.UnOp(in.Sub) {
		case source.OpNot:
			s[in.A] = val.BoolV(!s[in.B].AsBool())
		default:
			if s[in.B].K == val.Double {
				s[in.A] = val.DoubleV(-s[in.B].F)
			} else {
				s[in.A] = val.IntV(-s[in.B].I)
			}
		}
	case compile.OpNewObj:
		s[in.A] = val.ObjV(sn.Heap.NewObject(in.Class))
	case compile.OpNewArr:
		n := s[in.B].I
		if n < 0 {
			return runErr("negative array length %d", n)
		}
		s[in.A] = val.ArrV(sn.Heap.NewArray(int(n), in.Lit))
	case compile.OpGetField:
		o, err := sn.Heap.Object(s[in.B].OID(), in.Field.Class)
		if err != nil {
			return err
		}
		s[in.A] = o.Part(in.Field.Loc)[in.Field.PartIdx]
	case compile.OpSetField:
		o, err := sn.Heap.Object(s[in.A].OID(), in.Field.Class)
		if err != nil {
			return err
		}
		o.Part(in.Field.Loc)[in.Field.PartIdx] = s[in.B]
		o.markWritten(in.Field.Loc, in.Field.PartIdx)
	case compile.OpGetIdx:
		a, err := sn.Heap.Array(s[in.B].OID())
		if err != nil {
			return err
		}
		i := s[in.C].I
		if i < 0 || int(i) >= len(a.Elems) {
			return runErr("array index %d out of range [0,%d)", i, len(a.Elems))
		}
		s[in.A] = a.Elems[i]
	case compile.OpSetIdx:
		a, err := sn.Heap.Array(s[in.A].OID())
		if err != nil {
			return err
		}
		i := s[in.B].I
		if i < 0 || int(i) >= len(a.Elems) {
			return runErr("array index %d out of range [0,%d)", i, len(a.Elems))
		}
		a.Elems[i] = s[in.C]
	case compile.OpLen:
		if s[in.B].K == val.Str {
			s[in.A] = val.IntV(int64(len(s[in.B].S)))
			break
		}
		a, err := sn.Heap.Array(s[in.B].OID())
		if err != nil {
			return err
		}
		s[in.A] = val.IntV(int64(len(a.Elems)))
	case compile.OpDBQuery:
		p.Metrics.DBCalls.Add(1)
		if p.Env != nil {
			p.Env.DBCall(p.Side)
		}
		args := sn.dbArgs(len(in.Args))
		for i, slot := range in.Args {
			args[i] = s[slot]
		}
		id := p.stmtID(in)
		t := sn.Heap.takeTable()
		var err error
		if sn.into != nil {
			err = sn.into.QueryInto(&t.ResultSet, id, in.SQL, args...)
		} else {
			var rs *sqldb.ResultSet
			if rs, err = sn.DB.QueryStmt(id, in.SQL, args...); err == nil {
				t.ResultSet = *rs // the table adopts what the connection allocated
			}
		}
		if err != nil {
			sn.Heap.freeTable(t)
			return fmt.Errorf("db.query: %w", err)
		}
		s[in.A] = val.TableV(sn.Heap.putTable(t))
	case compile.OpDBExec:
		p.Metrics.DBCalls.Add(1)
		if p.Env != nil {
			p.Env.DBCall(p.Side)
		}
		args := sn.dbArgs(len(in.Args))
		for i, slot := range in.Args {
			args[i] = s[slot]
		}
		n, err := sn.DB.ExecStmt(p.stmtID(in), in.SQL, args...)
		if err != nil {
			return fmt.Errorf("db.update: %w", err)
		}
		s[in.A] = val.IntV(int64(n))
	case compile.OpDBBegin, compile.OpDBCommit, compile.OpDBRollback:
		p.Metrics.DBCalls.Add(1)
		if p.Env != nil {
			p.Env.DBCall(p.Side)
		}
		var err error
		switch in.Op {
		case compile.OpDBBegin:
			err = sn.DB.Begin()
		case compile.OpDBCommit:
			err = sn.DB.Commit()
		default:
			err = sn.DB.Rollback()
		}
		if err != nil {
			return fmt.Errorf("db txn: %w", err)
		}
	case compile.OpPrint:
		parts := make([]string, len(in.Args))
		for i, slot := range in.Args {
			parts[i] = s[slot].String()
		}
		p.outMu.Lock()
		fmt.Fprintln(p.Out, strings.Join(parts, " "))
		p.outMu.Unlock()
	case compile.OpSha1:
		if p.Env != nil {
			p.Env.Sha1(p.Side)
		}
		s[in.A] = val.IntV(interp.Sha1Round(s[in.B].I))
	case compile.OpConcat:
		s[in.A] = concat(s, in.Args)
	case compile.OpTblRows:
		t, err := sn.Heap.Table(s[in.B].OID())
		if err != nil {
			return err
		}
		s[in.A] = val.IntV(int64(len(t.Rows)))
	case compile.OpTblGet:
		t, err := sn.Heap.Table(s[in.B].OID())
		if err != nil {
			return err
		}
		r, c := int(s[in.C].I), int(s[in.Args[0]].I)
		if r < 0 || r >= len(t.Rows) {
			return runErr("table row %d out of range [0,%d)", r, len(t.Rows))
		}
		if c < 0 || c >= len(t.Rows[r]) {
			return runErr("table column %d out of range", c)
		}
		s[in.A] = interp.CoerceCell(t.Rows[r][c], source.Builtin(in.Sub))
	case compile.OpSendPart:
		oid := s[in.A].OID()
		if oid != 0 {
			sn.addPending(pendingSync{kind: syncObjPart, oid: oid, part: pdg.Loc(in.Sub)})
		}
	case compile.OpSendNative:
		v := s[in.A]
		switch v.K {
		case val.Arr:
			sn.addPending(pendingSync{kind: syncArray, oid: v.OID()})
		case val.Table:
			sn.addPending(pendingSync{kind: syncTable, oid: v.OID()})
		}
	default:
		return runErr("bad opcode %d", in.Op)
	}
	return nil
}

func binOp(op source.BinOp, l, r val.Value) (val.Value, error) {
	switch op {
	case source.OpEq, source.OpNe:
		eq := refEqual(l, r)
		if op == source.OpNe {
			eq = !eq
		}
		return val.BoolV(eq), nil
	case source.OpLt, source.OpLe, source.OpGt, source.OpGe:
		c := val.Compare(l, r)
		var b bool
		switch op {
		case source.OpLt:
			b = c < 0
		case source.OpLe:
			b = c <= 0
		case source.OpGt:
			b = c > 0
		default:
			b = c >= 0
		}
		return val.BoolV(b), nil
	case source.OpAnd:
		return val.BoolV(l.AsBool() && r.AsBool()), nil
	case source.OpOr:
		return val.BoolV(l.AsBool() || r.AsBool()), nil
	case source.OpMod:
		if r.I == 0 {
			return val.Value{}, runErr("division by zero")
		}
		return val.IntV(l.I % r.I), nil
	}
	// Numeric + - * /.
	if l.K == val.Double || r.K == val.Double {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case source.OpAdd:
			return val.DoubleV(lf + rf), nil
		case source.OpSub:
			return val.DoubleV(lf - rf), nil
		case source.OpMul:
			return val.DoubleV(lf * rf), nil
		case source.OpDiv:
			if rf == 0 {
				return val.Value{}, runErr("division by zero")
			}
			return val.DoubleV(lf / rf), nil
		}
	}
	switch op {
	case source.OpAdd:
		return val.IntV(l.I + r.I), nil
	case source.OpSub:
		return val.IntV(l.I - r.I), nil
	case source.OpMul:
		return val.IntV(l.I * r.I), nil
	case source.OpDiv:
		if r.I == 0 {
			return val.Value{}, runErr("division by zero")
		}
		return val.IntV(l.I / r.I), nil
	}
	return val.Value{}, runErr("bad binary op %d", op)
}

// concat is OpConcat: the operands rendered as sys.str renders them,
// end to end, in one allocation sized before it is filled. A lone
// string operand is the result as it stands.
func concat(s []val.Value, args []int) val.Value {
	if len(args) == 1 && s[args[0]].K == val.Str {
		return s[args[0]]
	}
	n := 0
	for _, a := range args {
		if v := &s[a]; v.K == val.Str {
			n += len(v.S)
		} else {
			n += val.MaxAppendLen
		}
	}
	var b strings.Builder
	b.Grow(n)
	var num [val.MaxAppendLen]byte
	for _, a := range args {
		if v := &s[a]; v.K == val.Str {
			b.WriteString(v.S)
		} else {
			b.Write(val.Append(num[:0], *v))
		}
	}
	return val.StrV(b.String())
}

func refEqual(l, r val.Value) bool {
	if l.IsRef() || r.IsRef() {
		if l.K == val.Null {
			return r.K == val.Null || r.I == 0
		}
		if r.K == val.Null {
			return l.I == 0
		}
		return l.K == r.K && l.I == r.I
	}
	return l.Equal(r)
}
