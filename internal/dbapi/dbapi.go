// Package dbapi is this repository's JDBC analogue: a uniform database
// connection interface with two implementations. Local wraps an
// embedded sqldb session and runs every statement: the database-side
// partition's directly (colocated, no network), the wire's behind the
// server handler. Client speaks the wire protocol over an
// rpc.Transport (what the application-side partition uses): every
// operation but Begin is one round trip, the cost a JDBC driver pays,
// and Begin rides the request after it.
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
	"strings"
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
	// ExecStmt runs DDL/DML and returns the affected row count. id is
	// the statement's program-wide number (compile.Program.SQLTable
	// index): the connection prepares sql on the number's first touch
	// and runs it by number after, without re-shipping or re-parsing
	// the text. id < 0 runs sql unnumbered.
	ExecStmt(id int, sql string, args ...val.Value) (int, error)
	// QueryStmt runs a SELECT, numbered as ExecStmt.
	QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error)
	// Exec and Query are ExecStmt and QueryStmt unnumbered.
	Exec(sql string, args ...val.Value) (int, error)
	Query(sql string, args ...val.Value) (*sqldb.ResultSet, error)
	// Begin / Commit / Rollback manage an explicit transaction.
	Begin() error
	Commit() error
	Rollback() error
	Close() error
}

// PreparedConn is Conn. The name remains for the benchmark's tracing
// wrapper (benchmark/trace.go), which still spells it.
type PreparedConn = Conn

// IntoConn is implemented by connections that write a query's result
// into memory the caller owns: dst is Reset and refilled, so a caller
// that keeps dst from query to query (the runtime recycles its tables)
// allocates nothing for results its earlier ones made room for.
// QueryStmt is QueryInto on a fresh ResultSet.
type IntoConn interface {
	QueryInto(dst *sqldb.ResultSet, id int, sql string, args ...val.Value) error
}

// ErrUnprepared reports a statement number the server session has no
// statement for (e.g. a fresh session); the client re-sends the call
// with the SQL text attached.
var ErrUnprepared = errors.New("dbapi: statement not prepared")

// maxStmts bounds a session's statement table. Compiled programs number
// their statements densely from 0 and hold far fewer; a number at or
// past the bound is refused, so no number — least of all one read off
// the wire — grows the table past maxStmts entries.
const maxStmts = 1 << 12

// ---------------------------------------------------------------------------
// Local (embedded) connection
// ---------------------------------------------------------------------------

// Local is an embedded connection to an in-process database: what runs
// every statement, on the DB side directly and behind the wire
// protocol's server handler for the APP side.
type Local struct {
	Sess *sqldb.Session
	// stmts is the session's statement table: numbered statements, kept
	// parsed once prepared, so the hot path skips even the (lock-free)
	// plan-cache lookup.
	stmts []sqldb.SQLStmt
}

// NewLocal opens an embedded connection on db.
func NewLocal(db *sqldb.DB) *Local { return &Local{Sess: db.NewSession()} }

func (l *Local) Exec(sql string, args ...val.Value) (int, error) { return l.ExecStmt(-1, sql, args...) }
func (l *Local) Query(sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	return l.QueryStmt(-1, sql, args...)
}
func (l *Local) Begin() error    { return l.Sess.Begin() }
func (l *Local) Commit() error   { return l.Sess.Commit() }
func (l *Local) Rollback() error { return l.Sess.Rollback() }

// Close rolls back the transaction the connection left open, so its
// locks never outlive it.
func (l *Local) Close() error {
	if l.Sess.InTxn() {
		return l.Sess.Rollback()
	}
	return nil
}

// stmt resolves statement id: from the table once prepared, else by
// preparing sql into it. A number the table lacks with no text is
// ErrUnprepared; id < 0 prepares sql unnumbered.
func (l *Local) stmt(id int, sql string) (sqldb.SQLStmt, error) {
	switch {
	case id < 0:
		return l.Sess.Prepare(sql)
	case id >= maxStmts:
		return nil, fmt.Errorf("dbapi: statement %d past the table bound %d", id, maxStmts)
	case id < len(l.stmts) && l.stmts[id] != nil:
		return l.stmts[id], nil
	case sql == "":
		return nil, ErrUnprepared
	}
	st, err := l.Sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	for len(l.stmts) <= id {
		l.stmts = append(l.stmts, nil)
	}
	l.stmts[id] = st
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
	rs := new(sqldb.ResultSet)
	if err := l.QueryInto(rs, id, sql, args...); err != nil {
		return nil, err
	}
	return rs, nil
}

func (l *Local) QueryInto(dst *sqldb.ResultSet, id int, sql string, args ...val.Value) error {
	st, err := l.stmt(id, sql)
	if err != nil {
		dst.Reset()
		return err
	}
	return l.Sess.QueryInto(dst, st, args...)
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

// A request is its op byte and the op's fields, nothing after them. An
// op byte with beginFirst set asks the session to begin a transaction
// before it runs the op: that is how Client.Begin reaches the server.
const beginFirst byte = 0x80

const (
	// opExec and opQuery: [uvarint id+1, 0 = unnumbered][bool hasSQL]
	// [sql?][args]. A numbered statement's text rides along only on its
	// first touch (or after the server answers ErrUnprepared); every
	// later call is id + args. The reply is [ok] and then, for opExec,
	// [uvarint affected rows]; for opQuery, the result's column names
	// when the request carried the text, then [uvarint row count] and
	// each row's values. A statement's text fixes its columns (sqldb has
	// no SELECT *, DROP or ALTER), so the client keeps a numbered query's
	// names from the reply that carried them.
	opExec byte = iota + 1
	opQuery
	// opCommit, opRollback: the op byte alone.
	opCommit
	opRollback
	// opProgram, reply [str program]: the program the server serves.
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

	prepared []bool // numbers the server session has the text for
	// cols holds each numbered query's column names, from the last reply
	// that carried them: a reply without them is read with these. A
	// numbered query without names here carries its text, so the reply
	// brings them.
	cols [][]string

	// enc holds the request being sent and dec the reply being decoded.
	// A Conn is single-threaded, Transport.Call does not retain its
	// request and every reply is decoded before the next call, so every
	// operation encodes into the same buffer and lends the last reply's
	// memory to the next (rpc.CallInto).
	enc rpc.Writer
	dec rpc.Reader
	// begin is a Begin not yet sent: the next request carries it.
	begin bool
	// open is a transaction the server session holds: begun by a
	// request that carried a Begin, ended by the reply to a commit or
	// rollback, or by a deadlock error (the engine has aborted it). A
	// transport error leaves it as it was.
	open bool
}

// NewClient wraps a transport as a database connection.
func NewClient(t rpc.Transport) *Client { return &Client{T: t} }

// encodeStmt marshals one statement request into c.enc.
func (c *Client) encodeStmt(op byte, id int, hasSQL bool, sql string, args []val.Value) {
	c.enc.Reset()
	c.enc.Byte(op)
	c.enc.Uvarint(uint64(id + 1))
	c.enc.Bool(hasSQL)
	if hasSQL {
		c.enc.Str(sql)
	}
	c.enc.Vals(args)
}

// call sends the request in c.enc and returns a reader positioned after
// the reply's ok flag. The reader is c.dec: valid until the next call.
func (c *Client) call() (*rpc.Reader, error) {
	resp, err := rpc.CallInto(c.T, c.request(), c.dec.Buf)
	return c.reply(resp, err)
}

// request returns the request in c.enc as it goes out. A pending Begin
// rides it as beginFirst and is spent by it, whatever the reply: the
// server begins before it runs the op, so a re-send does not begin
// twice.
func (c *Client) request() []byte {
	if c.begin {
		c.enc.Buf[0] |= beginFirst
		c.begin, c.open = false, true
	}
	c.BytesSent += int64(len(c.enc.Buf))
	return c.enc.Buf
}

// reply decodes the answer to the request in c.enc.
func (c *Client) reply(resp []byte, err error) (*rpc.Reader, error) {
	op := c.enc.Buf[0]
	rpc.Released(c.enc.Buf)
	if err != nil {
		return nil, err
	}
	c.BytesRecv += int64(len(resp))
	c.dec = rpc.Reader{Buf: resp}
	if !c.dec.Bool() { // ok flag
		err = decodeError(c.dec.Str())
	}
	switch {
	case errors.Is(err, sqldb.ErrDeadlock):
		c.open = false // the engine aborted it
	case op&beginFirst != 0 && errors.Is(err, sqldb.ErrInTransaction):
		// The begin found a transaction open, and the op did not run.
	case op&^beginFirst == opCommit || op&^beginFirst == opRollback:
		c.open = false
	}
	if err != nil {
		return nil, err
	}
	return &c.dec, nil
}

// stmt runs a statement request: a numbered statement's text travels on
// its first touch, and once more when the server session answers
// ErrUnprepared; an unnumbered one (id < 0) carries its text every
// call, and so does a numbered query whose column names the client does
// not hold. hasSQL says the request answered carried the text. Any
// other error is the caller's.
func (c *Client) stmt(op byte, id int, sql string, args []val.Value) (r *rpc.Reader, hasSQL bool, err error) {
	id = max(id, -1) // every negative id goes as unnumbered
	hasSQL = id < 0 || id >= len(c.prepared) || !c.prepared[id] ||
		op == opQuery && (id >= len(c.cols) || c.cols[id] == nil)
	c.encodeStmt(op, id, hasSQL, sql, args)
	r, err = c.call()
	if !hasSQL && errors.Is(err, ErrUnprepared) {
		hasSQL = true
		c.encodeStmt(op, id, true, sql, args)
		r, err = c.call()
	}
	if err != nil || id < 0 {
		return r, hasSQL, err
	}
	for len(c.prepared) <= id {
		c.prepared = append(c.prepared, false)
	}
	c.prepared[id] = true
	return r, hasSQL, nil
}

func (c *Client) Exec(sql string, args ...val.Value) (int, error) {
	return c.ExecStmt(-1, sql, args...)
}
func (c *Client) Query(sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	return c.QueryStmt(-1, sql, args...)
}

func (c *Client) ExecStmt(id int, sql string, args ...val.Value) (int, error) {
	r, _, err := c.stmt(opExec, id, sql, args)
	if err != nil {
		return 0, err
	}
	n := int(r.Uvarint())
	return n, r.Err()
}

func (c *Client) QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	rs := new(sqldb.ResultSet)
	if err := c.QueryInto(rs, id, sql, args...); err != nil {
		return nil, err
	}
	return rs, nil
}

func (c *Client) QueryInto(dst *sqldb.ResultSet, id int, sql string, args ...val.Value) error {
	r, hasSQL, err := c.stmt(opQuery, id, sql, args)
	if err != nil {
		dst.Reset()
		return err
	}
	if id < 0 {
		return ReadResultSet(r, dst)
	}
	for len(c.cols) <= id {
		c.cols = append(c.cols, nil)
	}
	dst.Cols = c.cols[id]
	if !hasSQL {
		return readRows(r, dst)
	}
	err = ReadResultSet(r, dst)
	if err != nil {
		dst.Cols = nil // the next call carries the text, and the names with it
	}
	c.cols[id] = dst.Cols
	return err
}

// ReadResultSet decodes a result written by WriteResultSet into dst,
// reusing dst's memory and, when they match, its column names.
func ReadResultSet(r *rpc.Reader, dst *sqldb.ResultSet) error {
	if dst.Cols = r.Strs(dst.Cols); r.Err() != nil {
		dst.Reset()
		return r.Err()
	}
	return readRows(r, dst)
}

// readRows decodes a result's rows, as writeRows wrote them, into dst,
// reusing dst's memory and keeping its column names. It reads the rows
// twice: a first pass validates them and sums their strings' bytes,
// allocating nothing; the second copies every string cell into one
// allocation of that size. A table costs one allocation however many
// string cells it has, and none if it has none, and no cell aliases
// r.Buf, which its owner lends to its next call.
func readRows(r *rpc.Reader, dst *sqldb.ResultSet) error {
	dst.Reset()
	// The row count is checked against the bytes left before it sizes
	// anything: a row is at least its own 1-byte count.
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(len(r.Buf)-r.Off) {
		return rpc.ErrShortBuffer
	}
	nrows := int(n)
	// The rows of one result live and die together, so their values
	// share one backing array: ncols per row when the frame can hold
	// that many (a value is at least a byte), grown otherwise.
	vals := 0
	if ncols := len(dst.Cols); ncols > 0 && nrows <= (len(r.Buf)-r.Off)/ncols {
		vals = nrows * ncols
	}
	scan := *r
	strBytes := 0
	for i := 0; i < nrows && scan.Err() == nil; i++ {
		strBytes += scan.SkipVals()
	}
	if scan.Err() != nil {
		*r = scan
		return r.Err()
	}
	dst.Reserve(nrows, vals)
	var strs strings.Builder
	strs.Grow(strBytes)
	for i := 0; i < nrows; i++ {
		n, _ := r.ValsLen()
		r.ValsIn(dst.NewRow(n), &strs)
	}
	return r.Err()
}

// Begin sends nothing: the next request carries it (beginFirst). A
// second Begin before then is refused here.
func (c *Client) Begin() error {
	if c.begin {
		return sqldb.ErrInTransaction
	}
	c.begin = true
	return nil
}

func (c *Client) Commit() error { return c.txn(opCommit) }

// Rollback drops a Begin that has not been sent yet, sending nothing;
// otherwise it asks the server to roll back.
func (c *Client) Rollback() error {
	if c.begin && !c.open {
		c.begin = false
		return nil
	}
	return c.txn(opRollback)
}

func (c *Client) Close() error { return c.T.Close() }

// InTxn reports whether the connection holds a transaction or has a
// Begin waiting for its next request: whether a Rollback has anything
// to end.
func (c *Client) InTxn() bool { return c.open || c.begin }

// txn sends a transaction op: the op byte alone.
func (c *Client) txn(op byte) error {
	c.enc.Reset()
	c.enc.Byte(op)
	_, err := c.call()
	return err
}

// Sentinel errors cross the wire by name so clients can match them.
var wireErrors = map[string]error{
	"deadlock":       sqldb.ErrDeadlock,
	"dup-key":        sqldb.ErrDupKey,
	"no-transaction": sqldb.ErrNoTransaction,
	"in-transaction": sqldb.ErrInTransaction,
	"unprepared":     ErrUnprepared,
}

func encodeError(err error) string {
	switch {
	case errors.Is(err, sqldb.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, sqldb.ErrDupKey):
		return "dup-key"
	case errors.Is(err, sqldb.ErrNoTransaction):
		return "no-transaction"
	case errors.Is(err, sqldb.ErrInTransaction):
		return "in-transaction"
	case errors.Is(err, ErrUnprepared):
		return "unprepared"
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
// connection: each mux session gets its own Local (and so its own
// transaction context), closed with the session so an open transaction
// never outlives it. Client.Program is answered with an empty program.
func MuxHandlers(db *sqldb.DB) rpc.SessionHandlers { return MuxHandlersProgram(db, nil) }

// MuxHandlersProgram is MuxHandlers answering Client.Program with
// program.
func MuxHandlersProgram(db *sqldb.DB, program []byte) rpc.SessionHandlers {
	return &muxHandlers{db: db, program: program, conns: map[uint32]*Local{}}
}

type muxHandlers struct {
	db      *sqldb.DB
	program []byte
	mu      sync.Mutex
	conns   map[uint32]*Local
}

func (h *muxHandlers) Open(sid uint32) rpc.Handler {
	conn := NewLocal(h.db)
	h.mu.Lock()
	h.conns[sid] = conn
	h.mu.Unlock()
	return newSessionHandler(conn, h.program)
}

func (h *muxHandlers) Closed(sid uint32) {
	h.mu.Lock()
	conn := h.conns[sid]
	delete(h.conns, sid)
	h.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// SessionHandler serves the wire protocol against an existing session
// (useful when the caller needs to control the session's WaitPoint).
func SessionHandler(sess *sqldb.Session) rpc.Handler {
	return newSessionHandler(&Local{Sess: sess}, nil)
}

// newSessionHandler serves one wire session on conn, whose statement
// table is the session's. It keeps one reply buffer: a session's calls
// are sequential and the transport is done with a reply before the next
// call (see rpc.Handler), so every reply is encoded into the same
// memory.
func newSessionHandler(conn *Local, program []byte) rpc.Handler {
	h := &sessionHandler{conn: conn, program: program}
	return h.serve
}

// replyKeep is the largest reply buffer a session handler keeps between
// calls.
const replyKeep = 64 << 10

type sessionHandler struct {
	conn    *Local
	program []byte          // what opProgram answers
	w       rpc.Writer      // the reply; reused across calls
	args    []val.Value     // the decoded arguments; reused across calls
	rs      sqldb.ResultSet // a query's result, until its reply is encoded
}

// serve decodes a request whole, then runs it: the begin its op byte
// carries first, then the op. A request cut short, naming no known op,
// or with bytes after its last field is an error and runs nothing; what
// the begin or the op refuses is an error reply, and a failed begin
// runs no op.
func (h *sessionHandler) serve(req []byte) ([]byte, error) {
	r := rpc.Reader{Buf: req}
	op := r.Byte()
	begin := op&beginFirst != 0
	op &^= beginFirst
	var (
		id     int    // a statement's number, -1 unnumbered
		hasSQL bool   // the request carries the statement's text
		sql    string // a statement's text, "" when absent
	)
	switch op {
	case opExec, opQuery:
		// An id past the table bound stays past it, without wrapping int.
		id = int(min(r.Uvarint(), maxStmts+1)) - 1
		if hasSQL = r.Bool(); hasSQL {
			sql = r.Str()
		}
		// The engine evaluates its arguments and keeps none, so they
		// decode into the handler's own slice.
		h.args = r.AppendVals(h.args[:0])
	case opCommit, opRollback, opProgram:
	default:
		return nil, fmt.Errorf("dbapi: unknown op %d", op)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if left := len(r.Buf) - r.Off; left != 0 {
		return nil, fmt.Errorf("dbapi: %d bytes after op %d's request", left, op)
	}

	if cap(h.w.Buf) > replyKeep {
		h.w.Buf = nil // one large result does not pin its buffer for the session's life
	}
	h.w.Reset()
	if begin {
		if err := h.conn.Begin(); err != nil {
			return encodeErr(&h.w, err), nil
		}
	}
	h.w.Bool(true)
	var err error
	switch op {
	case opExec:
		var n int
		n, err = h.conn.ExecStmt(id, sql, h.args...)
		h.w.Uvarint(uint64(n))
	case opQuery:
		if err = h.conn.QueryInto(&h.rs, id, sql, h.args...); err == nil {
			if hasSQL {
				WriteResultSet(&h.w, &h.rs)
			} else {
				writeRows(&h.w, &h.rs)
			}
		}
		h.rs.Reset()
	case opCommit:
		err = h.conn.Commit()
	case opRollback:
		err = h.conn.Rollback()
	case opProgram:
		h.w.Str(string(h.program))
	}
	if err != nil {
		h.w.Reset()
		return encodeErr(&h.w, err), nil
	}
	return h.w.Buf, nil
}

// WriteResultSet encodes rs: its column names, then its rows
// (writeRows).
func WriteResultSet(w *rpc.Writer, rs *sqldb.ResultSet) {
	w.Uvarint(uint64(len(rs.Cols)))
	for _, c := range rs.Cols {
		w.Str(c)
	}
	writeRows(w, rs)
}

// writeRows encodes rs's rows: their count, then each row's values.
func writeRows(w *rpc.Writer, rs *sqldb.ResultSet) {
	w.Uvarint(uint64(len(rs.Rows)))
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
