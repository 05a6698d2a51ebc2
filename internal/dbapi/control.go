package dbapi

// Two-phase-commit and range-migration control are ordinary dbapi
// operations: a coordinator (runtime.Coordinator) or a migrator
// (runtime.Migrator) sends them on a branch's own session, so they stay
// ordered with the session's statements — a PREPARE lands after the
// branch's last write, and a Begin rides whatever op the session sends
// next, a FENCE as readily as a statement. Commit, abort and status are
// keyed by the global transaction ID alone: the shard's Participant is
// shared by all its sessions, so a decision finds its gid on any of
// them.
//
// Every control op is bounded: over a transport with CallWithin (the
// mux wire) a stalled peer answers rpc.ErrTxnDeadline and a dead one an
// error matching rpc.ErrPoolPoisoned, so neither can wedge the caller.

import (
	"fmt"
	"slices"
	"time"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
)

// callWithin sends the request in c.enc bounded by timeout where the
// transport can bound a call, and as a plain call elsewhere.
func (c *Client) callWithin(timeout time.Duration) (*rpc.Reader, error) {
	t, ok := c.T.(interface {
		CallWithin(req, into []byte, timeout time.Duration) ([]byte, error)
	})
	if !ok {
		return c.call()
	}
	resp, err := t.CallWithin(c.request(), c.dec.Buf, timeout)
	return c.reply(resp, err)
}

// txnOp sends one 2PC op for gid and returns the participant's state.
func (c *Client) txnOp(op byte, gid uint64, timeout time.Duration) (TxnState, error) {
	c.enc.Reset()
	c.enc.Byte(op)
	c.enc.U64(gid)
	r, err := c.callWithin(timeout)
	if err != nil {
		return TxnStateUnknown, err
	}
	st := TxnState(r.Byte())
	return st, r.Err()
}

// Prepare moves the session's open transaction into the prepared
// (in-doubt) state under gid. timeout bounds the call (<= 0 means
// rpc.DefaultTxnDeadline).
func (c *Client) Prepare(gid uint64, timeout time.Duration) (TxnState, error) {
	return c.txnOp(opPrepare, gid, timeout)
}

// Decide delivers the coordinator's decision for gid.
func (c *Client) Decide(gid uint64, commit bool, timeout time.Duration) (TxnState, error) {
	if commit {
		return c.txnOp(opCommitGID, gid, timeout)
	}
	return c.txnOp(opAbortGID, gid, timeout)
}

// Status asks the participant for its state of gid (recovery aid).
func (c *Client) Status(gid uint64, timeout time.Duration) (TxnState, error) {
	return c.txnOp(opStatusGID, gid, timeout)
}

// Fence arms a migration fence over spec on the session's database for
// at most ttl and returns its token (see sqldb.DB.ArmFence).
func (c *Client) Fence(spec sqldb.FenceSpec, ttl, timeout time.Duration) (uint64, error) {
	c.enc.Reset()
	c.enc.Byte(opFence)
	c.enc.I64(int64(ttl))
	c.enc.I64(spec.Lo)
	c.enc.I64(spec.Hi)
	c.enc.Uvarint(uint64(len(spec.Tables)))
	tables := make([]string, 0, len(spec.Tables))
	for t := range spec.Tables {
		tables = append(tables, t)
	}
	slices.Sort(tables)
	for _, t := range tables {
		c.enc.Str(t)
		c.enc.Str(spec.Tables[t])
	}
	r, err := c.callWithin(timeout)
	if err != nil {
		return 0, err
	}
	tok := r.U64()
	return tok, r.Err()
}

// AdoptFence exempts this session from the fence armed under token.
func (c *Client) AdoptFence(token uint64, timeout time.Duration) error {
	c.enc.Reset()
	c.enc.Byte(opAdopt)
	c.enc.U64(token)
	_, err := c.callWithin(timeout)
	return err
}

// ReleaseFence drops the fence armed under token: moved=true tombstones
// its range as moved out, moved=false returns it to service.
func (c *Client) ReleaseFence(token uint64, moved bool, timeout time.Duration) error {
	c.enc.Reset()
	c.enc.Byte(opRelease)
	c.enc.U64(token)
	c.enc.Bool(moved)
	_, err := c.callWithin(timeout)
	return err
}

// Program returns the bytes that describe the program the shard serves
// (empty when it serves none), bounded by rpc.DefaultTxnDeadline.
func (c *Client) Program() ([]byte, error) {
	c.enc.Reset()
	c.enc.Byte(opProgram)
	r, err := c.callWithin(0)
	if err != nil {
		return nil, err
	}
	prog := []byte(r.Str())
	return prog, r.Err()
}

// decodeFence reads an opFence body: [ttl][lo][hi][n][table,col]*.
func decodeFence(r *rpc.Reader) (sqldb.FenceSpec, time.Duration, error) {
	ttl := time.Duration(r.I64())
	spec := sqldb.FenceSpec{Lo: r.I64(), Hi: r.I64()}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return spec, 0, err
	}
	// An entry is two length-prefixed strings, 8 bytes at least: a count
	// the bytes left cannot hold is corrupt, and must not size the map
	// (fuzzing the decoder found 1.3 MB allocated for a 92-byte request).
	if n > uint64(len(r.Buf)-r.Off)/8 {
		return spec, 0, fmt.Errorf("dbapi: fence table count %d exceeds the request: %w", n, rpc.ErrShortBuffer)
	}
	spec.Tables = make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		t := r.Str()
		spec.Tables[t] = r.Str()
	}
	return spec, ttl, r.Err()
}
