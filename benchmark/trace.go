package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Spans are recorded from this package only, around the calls into
// each layer's public interface:
//
//	txn ⊃ rpc.ctl ⊃ runtime.db ⊃ sqldb.local
//	txn ⊃ dbapi.client ⊃ rpc.db ⊃ dbapi.server
//
// A client is one logical thread of control: while it waits for a
// reply the server works for it and for nobody else, so one tracer per
// client records both sides, and the server-side wrappers reach it
// through the session ID (everything shares one process and clock).

type spanName uint8

const (
	spTxn         spanName = iota // around Client.CallEntry, deadlock retries included
	spRPCCtl                      // Transport.Call on the control session
	spRuntimeDB                   // the session manager's handler for that session
	spSQLLocal                    // one statement, Begin, Commit or Rollback on the DB-side dbapi.Local
	spDBAPIClient                 // one operation on the APP-side dbapi.Client
	spRPCDB                       // Transport.Call on the database session
	spDBAPIServer                 // the dbapi handler for that session
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "rpc.ctl", "runtime.db", "sqldb.local", "dbapi.client", "rpc.db", "dbapi.server",
}

// stmtKind labels sqldb.local and dbapi.client spans.
type stmtKind uint8

const (
	kindOther stmtKind = iota
	kindSelect
	kindUpdate
	kindInsert
	kindDelete
	kindBegin
	kindCommit
	kindRollback
	numStmtKinds
)

var stmtKindNames = [numStmtKinds]string{
	"other", "select", "update", "insert", "delete", "begin", "commit", "rollback",
}

func kindOfSQL(sql string) stmtKind {
	if sql == "" {
		return kindOther
	}
	switch sql[0] | 0x20 {
	case 's':
		return kindSelect
	case 'u':
		return kindUpdate
	case 'i':
		return kindInsert
	case 'd':
		return kindDelete
	}
	return kindOther
}

// span is one timed interval. It holds no pointers, so a tracer's
// spans can live outside the Go heap.
type span struct {
	start, end int64    // nanoseconds since the tracer's base
	parent     int32    // index of the enclosing span in the same tracer; -1 for a root
	txn        uint32   // the client's transaction number
	name       spanName // layer boundary
	kind       uint8    // stmtKind, or txnClass on a txn span
}

// tracer records one client's spans. The mutex orders the client
// goroutine and the server goroutines working for it; it is never
// contended.
type tracer struct {
	mu      sync.Mutex
	on      bool
	base    time.Time
	spans   []span // appended in start order
	stack   []int32
	txn     uint32
	dropped int64
	arena   []byte
}

// tracerCap bounds the spans one client records: 8M spans cover a
// minute of the busiest workload.
const tracerCap = 8 << 20

// newTracer reserves room for capacity spans in anonymous mapped
// memory rather than on the Go heap: a few hundred megabytes of live
// heap would halve the garbage collector's frequency in the traced
// window and make the traced program look cheaper than the untraced
// one. Pages are committed only as spans are written.
func newTracer(base time.Time, capacity int) (*tracer, error) {
	size := capacity * int(unsafe.Sizeof(span{}))
	arena, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("benchmark: reserve %d bytes for spans: %w", size, err)
	}
	return &tracer{
		base:  base,
		arena: arena,
		spans: unsafe.Slice((*span)(unsafe.Pointer(&arena[0])), capacity)[:0],
	}, nil
}

// release unmaps the spans; the tracer must not be used afterwards.
func (t *tracer) release() {
	if t == nil || t.arena == nil {
		return
	}
	_ = syscall.Munmap(t.arena) // nothing to do about a failed unmap at exit
	t.arena, t.spans = nil, nil
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its
// index, or -1 when nothing is recorded. A nil tracer records nothing.
func (t *tracer) begin(name spanName, kind uint8) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{
		start: int64(time.Since(t.base)), parent: parent, txn: t.txn, name: name, kind: kind,
	})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// beginTxn numbers the next transaction and opens its root span.
func (t *tracer) beginTxn(class txnClass) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.txn++
	t.mu.Unlock()
	return t.begin(spTxn, uint8(class))
}

// ---------------------------------------------------------------------------
// Self time
// ---------------------------------------------------------------------------

// selfTimes returns, for each span, its duration minus the part of
// its interval that its children cover. spans must be in start order
// with every parent before its children, and parent indices are
// relative to base (a transaction's spans are contiguous, so a caller
// passes the slice of one transaction and its root's index). Children
// may overlap one another; the union of their intervals, clipped to
// the parent, is what counts. self is reused when large enough.
func selfTimes(spans []span, base int32, self []int64) []int64 {
	n := len(spans)
	if cap(self) < 2*n {
		self = make([]int64, 2*n)
	}
	self = self[:2*n]
	covered, lastEnd := self[:n], self[n:]
	for i := range spans {
		covered[i] = 0
		lastEnd[i] = spans[i].start
	}
	for i := range spans {
		p := spans[i].parent - base
		if p < 0 || int(p) >= n {
			continue
		}
		from, to := spans[i].start, spans[i].end
		if from < lastEnd[p] {
			from = lastEnd[p]
		}
		if to > spans[p].end {
			to = spans[p].end
		}
		if to > from {
			covered[p] += to - from
			lastEnd[p] = to
		}
	}
	for i := range spans {
		covered[i] = spans[i].end - spans[i].start - covered[i]
	}
	return covered
}

// spanStats totals the spans of one name (or one statement kind).
type spanStats struct {
	N    int64
	Dur  int64 // summed durations, ns
	Self int64 // summed self times, ns
}

func (s spanStats) meanDurUs() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Dur) / float64(s.N) / 1e3
}

func (s spanStats) meanSelfUs() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.N) / 1e3
}

// traceSummary is what the traced window's spans add up to.
type traceSummary struct {
	Txns    int64
	ByName  [numSpanNames]spanStats
	SQLKind [numStmtKinds]spanStats // sqldb.local spans by statement kind
	// MaxSelfSumErr is the largest relative gap, over all transactions,
	// between a txn span's duration and the self times of its tree
	// added up. They are equal when every child lies inside its parent.
	MaxSelfSumErr float64
	// HeavyRoundTripsP50 is the median number of rpc.ctl + rpc.db spans
	// in a heavy transaction.
	HeavyRoundTripsP50 float64
	Dropped            int64
}

func summarizeTraces(tracers []*tracer) traceSummary {
	var sum traceSummary
	var scratch []int64
	var heavyRT []float64
	for _, t := range tracers {
		sum.Dropped += t.dropped
		spans := t.spans
		for lo := 0; lo < len(spans); {
			hi := lo + 1
			for hi < len(spans) && spans[hi].parent >= 0 {
				hi++
			}
			txn := spans[lo:hi]
			scratch = selfTimes(txn, int32(lo), scratch)
			var selfSum int64
			roundTrips := 0
			for i, sp := range txn {
				st := &sum.ByName[sp.name]
				st.N++
				st.Dur += sp.end - sp.start
				st.Self += scratch[i]
				selfSum += scratch[i]
				switch sp.name {
				case spSQLLocal:
					k := &sum.SQLKind[sp.kind]
					k.N++
					k.Dur += sp.end - sp.start
					k.Self += scratch[i]
				case spRPCCtl, spRPCDB:
					roundTrips++
				}
			}
			sum.Txns++
			if dur := txn[0].end - txn[0].start; dur > 0 {
				gap := float64(selfSum-dur) / float64(dur)
				if gap < 0 {
					gap = -gap
				}
				if gap > sum.MaxSelfSumErr {
					sum.MaxSelfSumErr = gap
				}
			}
			if txnClass(txn[0].kind) == heavy {
				heavyRT = append(heavyRT, float64(roundTrips))
			}
			lo = hi
		}
	}
	if len(heavyRT) > 0 {
		sort.Float64s(heavyRT)
		sum.HeavyRoundTripsP50 = percentile(heavyRT, 50)
	}
	return sum
}

// writeSpans dumps every span as one CSV row.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,span,parent,txn,name,kind,start_ns,end_ns")
	for c, t := range tracers {
		for i, sp := range t.spans {
			kind := stmtKindNames[kindOther]
			switch sp.name {
			case spTxn:
				kind = txnClass(sp.kind).String()
			case spSQLLocal, spDBAPIClient:
				kind = stmtKindNames[sp.kind]
			}
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%s,%d,%d\n", c, i, sp.parent, sp.txn, spanNames[sp.name], kind, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Wrappers on the layers' public interfaces
// ---------------------------------------------------------------------------

// tracedTransport records one span per Call.
type tracedTransport struct {
	inner rpc.Transport
	tr    *tracer
	name  spanName
}

func (t *tracedTransport) Call(req []byte) ([]byte, error) {
	s := t.tr.begin(t.name, 0)
	resp, err := t.inner.Call(req)
	t.tr.end(s)
	return resp, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// tracedConn records one span per database operation.
type tracedConn struct {
	inner dbapi.PreparedConn
	tr    *tracer
	name  spanName
}

func (c *tracedConn) Exec(sql string, args ...val.Value) (int, error) {
	s := c.tr.begin(c.name, uint8(kindOfSQL(sql)))
	n, err := c.inner.Exec(sql, args...)
	c.tr.end(s)
	return n, err
}

func (c *tracedConn) Query(sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	s := c.tr.begin(c.name, uint8(kindOfSQL(sql)))
	rs, err := c.inner.Query(sql, args...)
	c.tr.end(s)
	return rs, err
}

func (c *tracedConn) ExecStmt(id int, sql string, args ...val.Value) (int, error) {
	s := c.tr.begin(c.name, uint8(kindOfSQL(sql)))
	n, err := c.inner.ExecStmt(id, sql, args...)
	c.tr.end(s)
	return n, err
}

func (c *tracedConn) QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	s := c.tr.begin(c.name, uint8(kindOfSQL(sql)))
	rs, err := c.inner.QueryStmt(id, sql, args...)
	c.tr.end(s)
	return rs, err
}

func (c *tracedConn) Begin() error {
	s := c.tr.begin(c.name, uint8(kindBegin))
	err := c.inner.Begin()
	c.tr.end(s)
	return err
}

func (c *tracedConn) Commit() error {
	s := c.tr.begin(c.name, uint8(kindCommit))
	err := c.inner.Commit()
	c.tr.end(s)
	return err
}

func (c *tracedConn) Rollback() error {
	s := c.tr.begin(c.name, uint8(kindRollback))
	err := c.inner.Rollback()
	c.tr.end(s)
	return err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// traceHub maps the session IDs of a deployment's two ports to the
// tracer of the client that owns the session.
type traceHub struct {
	mu      sync.Mutex
	bySID   [2]map[uint32]*tracer
	opening *tracer // tracer of the control session whose Open is running
}

const (
	portCtl = iota
	portDB
)

func newTraceHub() *traceHub {
	return &traceHub{bySID: [2]map[uint32]*tracer{{}, {}}}
}

func (h *traceHub) register(port int, sid uint32, tr *tracer) {
	h.mu.Lock()
	h.bySID[port][sid] = tr
	h.mu.Unlock()
}

func (h *traceHub) lookup(port int, sid uint32) *tracer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bySID[port][sid]
}

func (h *traceHub) setOpening(tr *tracer) {
	h.mu.Lock()
	h.opening = tr
	h.mu.Unlock()
}

// localConn is the session manager's NewConn: the DB-side embedded
// connection, wrapped for the session being opened. The manager calls
// it inside Open, which tracedHandlers brackets with setOpening.
func (h *traceHub) localConn(db *sqldb.DB) dbapi.Conn {
	local := dbapi.NewLocal(db)
	h.mu.Lock()
	tr := h.opening
	h.mu.Unlock()
	if tr == nil {
		return local
	}
	return &tracedConn{inner: local, tr: tr, name: spSQLLocal}
}

// tracedHandlers wraps the handler of every session a port opens.
type tracedHandlers struct {
	inner rpc.SessionHandlers
	hub   *traceHub
	port  int
	name  spanName
}

func (h *tracedHandlers) Open(sid uint32) rpc.Handler {
	tr := h.hub.lookup(h.port, sid)
	if h.port == portCtl {
		h.hub.setOpening(tr)
	}
	inner := h.inner.Open(sid)
	if h.port == portCtl {
		h.hub.setOpening(nil)
	}
	if tr == nil {
		return inner
	}
	return func(req []byte) ([]byte, error) {
		s := tr.begin(h.name, 0)
		resp, err := inner(req)
		tr.end(s)
		return resp, err
	}
}

func (h *tracedHandlers) Closed(sid uint32) { h.inner.Closed(sid) }
