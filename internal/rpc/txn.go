package rpc

// Two-phase-commit control frames. A coordinator (runtime.Coordinator)
// drives prepare/commit/abort against each participant shard over the
// shard's existing mux connection — no side channel, no extra dial —
// as typed muxTxnCtl frames carrying a one-byte op and the 64-bit
// global transaction ID. The participant half (dbapi.Participant)
// plugs in server-side via the TxnParticipant interface, which a
// connection's SessionHandlers may optionally implement.
//
// The protocol is presumed abort: the coordinator records a commit
// decision before sending any phase-2 frame and records nothing for
// aborts, so a participant that finds no decision when it re-queries —
// or a coordinator asked about an unknown gid — presumes abort. That
// makes every failure mode safe by default: a prepare that never
// arrives, a coordinator that dies before deciding, or a commit frame
// lost on a dead connection all converge to abort or to the recorded
// commit, never to a split outcome.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// TxnOp is a 2PC control operation.
type TxnOp uint8

const (
	// TxnPrepare asks the participant to move the session's open
	// transaction into the prepared (in-doubt) state under gid.
	TxnPrepare TxnOp = 1 + iota
	// TxnCommit / TxnAbort deliver the coordinator's decision for gid.
	TxnCommit
	TxnAbort
	// TxnStatus queries the participant's state for gid (recovery aid).
	TxnStatus
)

func (op TxnOp) String() string {
	switch op {
	case TxnPrepare:
		return "prepare"
	case TxnCommit:
		return "commit"
	case TxnAbort:
		return "abort"
	case TxnStatus:
		return "status"
	}
	return fmt.Sprintf("txn-op(%d)", uint8(op))
}

// TxnState is a participant's view of one global transaction.
type TxnState uint8

const (
	TxnStateUnknown TxnState = iota
	TxnStatePrepared
	TxnStateCommitted
	TxnStateAborted
)

func (st TxnState) String() string {
	switch st {
	case TxnStatePrepared:
		return "prepared"
	case TxnStateCommitted:
		return "committed"
	case TxnStateAborted:
		return "aborted"
	}
	return "unknown"
}

// ErrTxnDeadline reports that a 2PC control call did not complete
// within its per-participant deadline. The coordinator treats it like
// a dead participant: abort the global transaction (a participant that
// did prepare resolves via its own in-doubt deadline + re-query).
var ErrTxnDeadline = errors.New("rpc: txn control deadline exceeded")

// DefaultTxnDeadline bounds a 2PC control call when the caller passes
// no explicit timeout.
const DefaultTxnDeadline = 5 * time.Second

// TxnParticipant is the optional server-side 2PC hook: when a
// connection's SessionHandlers also implement it, muxTxnCtl frames are
// dispatched here. Prepare is addressed to a live session (sid);
// commit/abort/status are keyed by gid alone and may arrive on any
// session — including after the preparing session closed or on a new
// connection entirely. Implementations must be safe for concurrent use
// (frames arrive from every connection's demux loop and workers).
type TxnParticipant interface {
	TxnCtl(sid uint32, op TxnOp, gid uint64) (TxnState, error)
}

// TxnCtl issues one 2PC control operation for gid on this session's
// connection and returns the participant's resulting state. timeout
// bounds the whole exchange (<= 0 means DefaultTxnDeadline); on expiry
// the call returns ErrTxnDeadline. A dead or poisoned connection
// returns an error matching ErrPoolPoisoned so coordinators can treat
// "shard down" uniformly with the pool's own signal.
func (s *MuxSession) TxnCtl(op TxnOp, gid uint64, timeout time.Duration) (TxnState, error) {
	if s.closed.Load() {
		return TxnStateUnknown, fmt.Errorf("rpc: session %d closed", s.sid)
	}
	if timeout <= 0 {
		timeout = DefaultTxnDeadline
	}
	var body [9]byte
	body[0] = byte(op)
	binary.LittleEndian.PutUint64(body[1:], gid)
	f, err := s.c.exchange(s, muxTxnCtl, body[:], timeout)
	if err != nil {
		return TxnStateUnknown, ctlError(fmt.Sprintf("txn %s for gid %d", op, gid), timeout, err)
	}
	if f.kind != muxReplyTxn {
		return TxnStateUnknown, replyError(f, "txn ")
	}
	if len(f.body) != 1 {
		return TxnStateUnknown, fmt.Errorf("rpc: malformed txn reply (%d bytes)", len(f.body))
	}
	return TxnState(f.body[0]), nil
}

// ctlError types a failed control exchange: a 2PC coordinator or a
// migrator must never wedge on a stalled participant, so expiry is
// ErrTxnDeadline, and every other failure is the connection's death,
// typed ErrPoolPoisoned.
func ctlError(what string, timeout time.Duration, err error) error {
	if errors.Is(err, ErrTxnDeadline) {
		return fmt.Errorf("rpc: %s timed out after %v: %w", what, timeout, ErrTxnDeadline)
	}
	return fmt.Errorf("rpc: %s on dead connection: %w: %v", what, ErrPoolPoisoned, err)
}

// txnCtlReply executes one muxTxnCtl frame against the connection's
// participant (nil when the handlers don't implement TxnParticipant)
// and returns the reply's kind and body. Called from the demux loop or
// a session worker; the participant must be concurrency-safe.
func txnCtlReply(tp TxnParticipant, f muxFrame) (byte, []byte) {
	if tp == nil {
		return muxReplyErr, []byte("rpc: peer does not support 2pc")
	}
	if len(f.body) < 9 {
		return muxReplyErr, []byte(fmt.Sprintf("rpc: malformed txn-ctl frame (%d bytes)", len(f.body)))
	}
	op := TxnOp(f.body[0])
	gid := binary.LittleEndian.Uint64(f.body[1:9])
	st, err := tp.TxnCtl(f.sid, op, gid)
	if err != nil {
		return muxReplyErr, []byte(err.Error())
	}
	return muxReplyTxn, []byte{byte(st)}
}
