package dbapi

// Two-phase-commit control ops are ordinary dbapi operations: a
// coordinator (runtime.Coordinator) sends them on a branch's own
// session, so they stay ordered with the session's statements — a
// PREPARE lands after the branch's last write, and a Begin rides
// whatever op the session sends next, a PREPARE as readily as a
// statement. Commit, abort and status are keyed by the global
// transaction ID alone: the shard's Participant is shared by all its
// sessions, so a decision finds its gid on any of them.
//
// Every control op is bounded: over a transport with CallWithin (the
// mux wire) a stalled peer answers rpc.ErrTxnDeadline and a dead one an
// error matching rpc.ErrPoolPoisoned, so neither can wedge the caller.

import (
	"time"

	"pyxis/internal/rpc"
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
