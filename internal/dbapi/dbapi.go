// Package dbapi is this repository's JDBC analogue: a uniform database
// connection interface with two implementations. Local wraps an
// embedded sqldb session (what the database-side partition uses —
// colocated, no network). Client speaks the wire protocol over an
// rpc.Transport (what the application-side partition uses — every
// operation is one round trip, exactly the cost the paper's JDBC
// implementation pays).
//
// Statement routing makes no serialization assumptions about the
// engine: distinct connections (and the sqldb sessions behind them)
// execute genuinely in parallel against the sharded engine, which
// serializes only where data actually conflicts (per-table latches,
// row-lock waits). One Conn is still one logical thread of control.
package dbapi

import (
	"errors"
	"fmt"
	"sync"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Conn is a database connection. Implementations are not safe for
// concurrent use; each logical thread of control owns one Conn.
// Distinct Conns run concurrently: statements on different connections
// are not serialized by the engine unless they touch conflicting data.
type Conn interface {
	// Exec runs DDL/DML and returns the affected row count.
	Exec(sql string, args ...val.Value) (int, error)
	// Query runs a SELECT.
	Query(sql string, args ...val.Value) (*sqldb.ResultSet, error)
	// Begin / Commit / Rollback manage an explicit transaction.
	Begin() error
	Commit() error
	Rollback() error
	Close() error
}

// PreparedConn is implemented by connections that execute
// compile-numbered statements without re-shipping (or re-parsing) the
// SQL text on every call. id is the program-wide statement number
// (compile.Program.SQLTable index); sql is the statement text, used to
// prepare on first touch.
type PreparedConn interface {
	Conn
	ExecStmt(id int, sql string, args ...val.Value) (int, error)
	QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error)
}

// ErrUnprepared reports a prepared-statement id the server session has
// no statement for (e.g. a fresh session); the client re-sends the
// call with the SQL text attached.
var ErrUnprepared = errors.New("dbapi: statement not prepared")

// ---------------------------------------------------------------------------
// Local (embedded) connection
// ---------------------------------------------------------------------------

// Local is an embedded connection to an in-process database.
type Local struct {
	Sess *sqldb.Session
	// stmts memoizes parsed statements by program-wide id, so the hot
	// path skips even the (lock-free) plan-cache lookup.
	stmts []sqldb.SQLStmt
}

// NewLocal opens an embedded connection on db.
func NewLocal(db *sqldb.DB) *Local { return &Local{Sess: db.NewSession()} }

func (l *Local) Exec(sql string, args ...val.Value) (int, error) { return l.Sess.Exec(sql, args...) }
func (l *Local) Query(sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	return l.Sess.Query(sql, args...)
}
func (l *Local) Begin() error    { return l.Sess.Begin() }
func (l *Local) Commit() error   { return l.Sess.Commit() }
func (l *Local) Rollback() error { return l.Sess.Rollback() }
func (l *Local) Close() error    { return nil }

func (l *Local) stmt(id int, sql string) (sqldb.SQLStmt, error) {
	if id >= 0 && id < len(l.stmts) && l.stmts[id] != nil {
		return l.stmts[id], nil
	}
	st, err := l.Sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if id >= 0 {
		for len(l.stmts) <= id {
			l.stmts = append(l.stmts, nil)
		}
		l.stmts[id] = st
	}
	return st, nil
}

func (l *Local) ExecStmt(id int, sql string, args ...val.Value) (int, error) {
	st, err := l.stmt(id, sql)
	if err != nil {
		return 0, err
	}
	return l.Sess.ExecParsed(st, args...)
}

func (l *Local) QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	st, err := l.stmt(id, sql)
	if err != nil {
		return nil, err
	}
	return l.Sess.QueryParsed(st, args...)
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

const (
	opExec byte = iota + 1
	opQuery
	opBegin
	opCommit
	opRollback
	// Prepared variants: [op][uvarint id][bool hasSQL][sql?][args].
	// The text rides along only on first touch (or after the server
	// answers ErrUnprepared); every later call is id + args.
	opPrepExec
	opPrepQuery
	// Two-phase commit, each [op][gid u64], reply [state u8] (control.go).
	opPrepare
	opCommitGID
	opAbortGID
	opStatusGID
	// Range-migration fence: opFence [ttl][lo][hi][n][table,col]*,
	// reply [token u64]; opAdopt [token]; opRelease [token][moved].
	opFence
	opAdopt
	opRelease
	// opProgram, reply [str program]: the program the shard serves.
	opProgram
)

// Client is a remote connection over a transport. One Client maps to
// one server-side session (and so one transaction context).
type Client struct {
	T rpc.Transport
	// BytesSent/BytesRecv count request/response payload bytes
	// (benchmark instrumentation; a Conn is single-threaded).
	BytesSent int64
	BytesRecv int64

	prepared []bool // ids the server session has the text for

	// enc holds the request being sent and dec the reply being decoded.
	// A Conn is single-threaded and Transport.Call does not retain its
	// request, so every operation encodes into the same buffer.
	enc rpc.Writer
	dec rpc.Reader
}

// NewClient wraps a transport as a database connection.
func NewClient(t rpc.Transport) *Client { return &Client{T: t} }

// encode marshals one string-path database operation into c.enc.
func (c *Client) encode(op byte, sql string, args []val.Value) {
	c.enc.Reset()
	c.enc.Byte(op)
	c.enc.Str(sql)
	c.enc.Vals(args)
}

// encodePrepared marshals one prepared-path operation into c.enc.
func (c *Client) encodePrepared(op byte, id int, hasSQL bool, sql string, args []val.Value) {
	c.enc.Reset()
	c.enc.Byte(op)
	c.enc.Uvarint(uint64(id))
	c.enc.Bool(hasSQL)
	if hasSQL {
		c.enc.Str(sql)
	}
	c.enc.Vals(args)
}

// call sends the request in c.enc and returns a reader positioned after
// the reply's ok flag. The reader is c.dec: valid until the next call.
func (c *Client) call() (*rpc.Reader, error) {
	c.BytesSent += int64(len(c.enc.Buf))
	resp, err := c.T.Call(c.enc.Buf)
	return c.reply(resp, err)
}

// reply decodes the answer to the request in c.enc.
func (c *Client) reply(resp []byte, err error) (*rpc.Reader, error) {
	rpc.Released(c.enc.Buf)
	if err != nil {
		return nil, err
	}
	c.BytesRecv += int64(len(resp))
	c.dec = rpc.Reader{Buf: resp}
	if !c.dec.Bool() { // ok flag
		return nil, decodeError(c.dec.Str())
	}
	return &c.dec, nil
}

func (c *Client) do(op byte, sql string, args []val.Value) (*rpc.Reader, error) {
	c.encode(op, sql, args)
	return c.call()
}

// doPrepared runs op over the prepared wire: the text travels on the
// statement's first touch, and once more when the server session
// answers ErrUnprepared. Any other error is the caller's. A statement
// without an id (id < 0) goes by its text, as strOp.
func (c *Client) doPrepared(op, strOp byte, id int, sql string, args []val.Value) (*rpc.Reader, error) {
	if id < 0 {
		return c.do(strOp, sql, args)
	}
	hasSQL := id >= len(c.prepared) || !c.prepared[id]
	c.encodePrepared(op, id, hasSQL, sql, args)
	r, err := c.call()
	if errors.Is(err, ErrUnprepared) {
		c.encodePrepared(op, id, true, sql, args)
		r, err = c.call()
	}
	if err != nil {
		return nil, err
	}
	c.markPrepared(id)
	return r, nil
}

func (c *Client) markPrepared(id int) {
	for len(c.prepared) <= id {
		c.prepared = append(c.prepared, false)
	}
	c.prepared[id] = true
}

func (c *Client) Exec(sql string, args ...val.Value) (int, error) {
	r, err := c.do(opExec, sql, args)
	if err != nil {
		return 0, err
	}
	n := int(r.I64())
	return n, r.Err()
}

func (c *Client) ExecStmt(id int, sql string, args ...val.Value) (int, error) {
	r, err := c.doPrepared(opPrepExec, opExec, id, sql, args)
	if err != nil {
		return 0, err
	}
	n := int(r.I64())
	return n, r.Err()
}

func (c *Client) Query(sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	r, err := c.do(opQuery, sql, args)
	if err != nil {
		return nil, err
	}
	return decodeResultSet(r)
}

func (c *Client) QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	r, err := c.doPrepared(opPrepQuery, opQuery, id, sql, args)
	if err != nil {
		return nil, err
	}
	return decodeResultSet(r)
}

func decodeResultSet(r *rpc.Reader) (*sqldb.ResultSet, error) {
	rs := &sqldb.ResultSet{}
	// Every count below is checked against the bytes left before it
	// sizes anything: a column name or a row is at least its own 4-byte
	// length.
	left := func() int { return (len(r.Buf) - r.Off) / 4 }
	ncols := int(r.U32())
	if r.Err() != nil || ncols > left() {
		return nil, rpc.ErrShortBuffer
	}
	rs.Cols = make([]string, 0, ncols)
	for i := 0; i < ncols; i++ {
		rs.Cols = append(rs.Cols, r.Str())
	}
	nrows := int(r.U32())
	if r.Err() != nil || nrows > left() {
		return nil, rpc.ErrShortBuffer
	}
	rs.Rows = make([][]val.Value, 0, nrows)
	// The rows of one result live and die together, so their values
	// share one backing array: ncols per row when the frame can hold
	// that many (a value is at least a byte), grown otherwise.
	var slab []val.Value
	if ncols > 0 && nrows <= (len(r.Buf)-r.Off)/ncols {
		slab = make([]val.Value, 0, nrows*ncols)
	}
	for i := 0; i < nrows; i++ {
		start := len(slab)
		slab = r.AppendVals(slab)
		rs.Rows = append(rs.Rows, slab[start:len(slab):len(slab)])
	}
	return rs, r.Err()
}

func (c *Client) Begin() error    { _, err := c.do(opBegin, "", nil); return err }
func (c *Client) Commit() error   { _, err := c.do(opCommit, "", nil); return err }
func (c *Client) Rollback() error { _, err := c.do(opRollback, "", nil); return err }
func (c *Client) Close() error    { return c.T.Close() }

// Sentinel errors cross the wire by name so clients can match them.
var wireErrors = map[string]error{
	"deadlock":       sqldb.ErrDeadlock,
	"dup-key":        sqldb.ErrDupKey,
	"no-transaction": sqldb.ErrNoTransaction,
	"unprepared":     ErrUnprepared,
	"range-fenced":   sqldb.ErrRangeFenced,
	"range-moved":    sqldb.ErrRangeMoved,
}

func encodeError(err error) string {
	switch {
	case errors.Is(err, sqldb.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, sqldb.ErrDupKey):
		return "dup-key"
	case errors.Is(err, sqldb.ErrNoTransaction):
		return "no-transaction"
	case errors.Is(err, ErrUnprepared):
		return "unprepared"
	case errors.Is(err, sqldb.ErrRangeFenced):
		return "range-fenced"
	case errors.Is(err, sqldb.ErrRangeMoved):
		return "range-moved"
	}
	return "! " + err.Error()
}

func decodeError(msg string) error {
	if e, ok := wireErrors[msg]; ok {
		return e
	}
	if len(msg) > 2 && msg[0] == '!' {
		return errors.New(msg[2:])
	}
	return errors.New(msg)
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

// MuxHandlers serves the database wire protocol on a multiplexed
// connection: each mux session gets its own sqldb session (and so its
// own transaction context); a session left with an open transaction is
// rolled back on close so its locks never outlive it. (A transaction
// in the 2PC prepared state is detached from its session and is NOT
// rolled back by close — only the coordinator's decision or the
// participant's in-doubt deadline resolves it.)
//
// Each call creates a private Participant, which is enough for tests
// and single-connection setups; servers use MuxHandlersTxn so a commit
// or abort arriving on a different connection than the prepare still
// finds the transaction.
func MuxHandlers(db *sqldb.DB) rpc.SessionHandlers {
	return MuxHandlersTxn(db, NewParticipant(0, nil), nil)
}

// MuxHandlersTxn is MuxHandlers with an explicit (typically
// server-shared) 2PC participant, answering Client.Program with program.
func MuxHandlersTxn(db *sqldb.DB, part *Participant, program []byte) rpc.SessionHandlers {
	return &muxHandlers{db: db, part: part, program: program, sessions: map[uint32]*sqldb.Session{}}
}

type muxHandlers struct {
	db       *sqldb.DB
	part     *Participant
	program  []byte
	mu       sync.Mutex
	sessions map[uint32]*sqldb.Session
}

func (h *muxHandlers) Open(sid uint32) rpc.Handler {
	sess := h.db.NewSession()
	h.mu.Lock()
	h.sessions[sid] = sess
	h.mu.Unlock()
	return newSessionHandler(sess, h.part, h.program)
}

func (h *muxHandlers) Closed(sid uint32) {
	h.mu.Lock()
	sess := h.sessions[sid]
	delete(h.sessions, sid)
	h.mu.Unlock()
	if sess != nil && sess.InTxn() {
		_ = sess.Rollback()
	}
}

// SessionHandler serves the wire protocol against an existing session
// (useful when the caller needs to control the session's WaitPoint).
// Each handler keeps its session's prepared-statement table: ids are
// bound when a request carries the SQL text and resolved to the
// pre-parsed statement on every later call. It also keeps one reply
// buffer: a session's calls are sequential and the transport is done
// with a reply before the next call (see rpc.Handler), so every reply
// is encoded into the same memory. It has no 2PC participant, so it
// refuses the 2PC ops; MuxHandlers' sessions serve them.
func SessionHandler(sess *sqldb.Session) rpc.Handler { return newSessionHandler(sess, nil, nil) }

func newSessionHandler(sess *sqldb.Session, part *Participant, program []byte) rpc.Handler {
	h := &sessionHandler{sess: sess, part: part, program: program, prepared: map[uint64]sqldb.SQLStmt{}}
	return h.serve
}

// replyKeep is the largest reply buffer a session handler keeps between
// calls.
const replyKeep = 64 << 10

type sessionHandler struct {
	sess     *sqldb.Session
	part     *Participant // the shard's; nil refuses the 2PC ops
	program  []byte       // what opProgram answers
	prepared map[uint64]sqldb.SQLStmt
	w        rpc.Writer  // the reply; reused across calls
	args     []val.Value // the decoded arguments; reused across calls
}

func (h *sessionHandler) serve(req []byte) ([]byte, error) {
	r := rpc.Reader{Buf: req}
	op := r.Byte()
	if op >= opPrepare {
		return h.control(op, &r)
	}
	// Prepared ops are [op][uvarint id][bool hasSQL][sql?][args], string
	// ops [op][sql][args].
	prep := op == opPrepExec || op == opPrepQuery
	var id uint64
	hasSQL := true
	if prep {
		id = r.Uvarint()
		hasSQL = r.Bool()
	}
	var sql string
	if hasSQL {
		sql = r.Str()
	}
	// The engine evaluates its arguments and keeps none, so they decode
	// into the handler's own slice.
	h.args = r.AppendVals(h.args[:0])
	args := h.args
	if err := r.Err(); err != nil {
		return nil, err
	}
	var st sqldb.SQLStmt
	var err error
	if prep {
		if hasSQL {
			if st, err = h.sess.Prepare(sql); err != nil {
				return h.fail(err), nil
			}
			h.prepared[id] = st
		} else if st = h.prepared[id]; st == nil {
			return h.fail(ErrUnprepared), nil
		}
	}
	if cap(h.w.Buf) > replyKeep {
		h.w.Buf = nil // one large result does not pin its buffer for the session's life
	}
	h.w.Reset()
	h.w.Bool(true)
	switch op {
	case opExec, opPrepExec:
		var n int
		if op == opExec {
			n, err = h.sess.Exec(sql, args...)
		} else {
			n, err = h.sess.ExecParsed(st, args...)
		}
		h.w.I64(int64(n))
	case opQuery, opPrepQuery:
		var rs *sqldb.ResultSet
		if op == opQuery {
			rs, err = h.sess.Query(sql, args...)
		} else {
			rs, err = h.sess.QueryParsed(st, args...)
		}
		if err == nil {
			writeResultSet(&h.w, rs)
		}
	case opBegin:
		err = h.sess.Begin()
	case opCommit:
		err = h.sess.Commit()
	case opRollback:
		err = h.sess.Rollback()
	default:
		return nil, fmt.Errorf("dbapi: unknown op %d", op)
	}
	if err != nil {
		return h.fail(err), nil
	}
	return h.w.Buf, nil
}

// fail encodes err as the reply.
func (h *sessionHandler) fail(err error) []byte {
	h.w.Reset()
	return encodeErr(&h.w, err)
}

func writeResultSet(w *rpc.Writer, rs *sqldb.ResultSet) {
	w.U32(uint32(len(rs.Cols)))
	for _, c := range rs.Cols {
		w.Str(c)
	}
	w.U32(uint32(len(rs.Rows)))
	for _, row := range rs.Rows {
		w.Vals(row)
	}
}

// encodeErr appends an error reply to w and returns the buffer.
func encodeErr(w *rpc.Writer, err error) []byte {
	w.Bool(false)
	w.Str(encodeError(err))
	return w.Buf
}
