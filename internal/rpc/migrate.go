package rpc

// Range-migration control frames. The migrator (runtime.Migrator)
// drives a warehouse-range move over the shards' existing mux
// connections — the same no-side-channel scheme as 2PC in txn.go —
// as typed muxMigCtl frames: FENCE arms a write-fence over the moving
// range on the source shard, ADOPT exempts the migrator's own drain
// session from that fence, and RELEASE drops it, either rolling the
// range back into service (moved=false) or tombstoning it as moved-out
// (moved=true, the post-cutover state that redirects stale routers).
// The cutover itself is the existing 2PC protocol: the drain's source
// DELETE and destination INSERT transactions commit atomically via
// TxnPrepare/TxnCommit, so no transaction ever observes half a
// warehouse.

import (
	"encoding/binary"
	"fmt"
	"time"
)

// MigOp is a migration control operation.
type MigOp uint8

const (
	// MigFence arms a fence over the request's key range; the reply
	// carries the fence token.
	MigFence MigOp = 1 + iota
	// MigAdopt exempts the addressed session from the armed fence.
	MigAdopt
	// MigRelease drops the fence; Moved selects tombstone vs rollback.
	MigRelease
)

func (op MigOp) String() string {
	switch op {
	case MigFence:
		return "fence"
	case MigAdopt:
		return "adopt"
	case MigRelease:
		return "release"
	}
	return fmt.Sprintf("mig-op(%d)", uint8(op))
}

// MigRequest is one migration control operation. Tables/Lo/Hi/TTL are
// meaningful for MigFence; Token for MigAdopt and MigRelease; Moved
// for MigRelease only.
type MigRequest struct {
	Op     MigOp
	Token  uint64
	Moved  bool
	Lo, Hi int64
	TTL    time.Duration
	Tables map[string]string // table -> partition-key column
}

// MigParticipant is the optional server-side migration hook, the
// muxMigCtl analog of TxnParticipant: when a connection's
// SessionHandlers also implement it, migration control frames are
// dispatched here. Fence/Release address the shard's database as a
// whole; Adopt addresses the live session sid. The returned token is
// the armed fence's token (MigFence) or echoes the request's.
type MigParticipant interface {
	MigCtl(sid uint32, req MigRequest) (uint64, error)
}

// MigCtl issues one migration control operation on this session's
// connection. timeout bounds the exchange (<= 0 means
// DefaultTxnDeadline); semantics mirror TxnCtl, including
// ErrPoolPoisoned typing for dead connections.
func (s *MuxSession) MigCtl(req MigRequest, timeout time.Duration) (uint64, error) {
	if s.closed.Load() {
		return 0, fmt.Errorf("rpc: session %d closed", s.sid)
	}
	if timeout <= 0 {
		timeout = DefaultTxnDeadline
	}
	f, err := s.c.exchange(s, muxMigCtl, encodeMigRequest(req), timeout)
	if err != nil {
		return 0, ctlError(fmt.Sprintf("mig %s", req.Op), timeout, err)
	}
	if f.kind != muxReplyMig {
		return 0, replyError(f, "mig ")
	}
	if len(f.body) < 8 {
		return 0, fmt.Errorf("rpc: malformed mig reply (%d bytes)", len(f.body))
	}
	return binary.LittleEndian.Uint64(f.body), nil
}

func encodeMigRequest(req MigRequest) []byte {
	w := &Writer{}
	w.Byte(byte(req.Op))
	w.U64(req.Token)
	w.Bool(req.Moved)
	w.I64(req.Lo)
	w.I64(req.Hi)
	w.I64(int64(req.TTL))
	w.Uvarint(uint64(len(req.Tables)))
	for _, t := range sortedMigKeys(req.Tables) {
		w.Str(t)
		w.Str(req.Tables[t])
	}
	return w.Buf
}

func decodeMigRequest(body []byte) (MigRequest, error) {
	r := &Reader{Buf: body}
	req := MigRequest{
		Op:    MigOp(r.Byte()),
		Token: r.U64(),
		Moved: r.Bool(),
		Lo:    r.I64(),
		Hi:    r.I64(),
	}
	req.TTL = time.Duration(r.I64())
	if n := r.Uvarint(); n > 0 {
		// An entry is two length-prefixed strings, 8 bytes at least: a
		// count the bytes left cannot hold is corrupt, and must not size
		// the map (FuzzMuxFrameDemux found 1.3 MB allocated for 92).
		if n > uint64(len(body)-r.Off)/8 {
			return req, fmt.Errorf("rpc: mig-ctl table count %d exceeds the frame", n)
		}
		req.Tables = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			t := r.Str()
			req.Tables[t] = r.Str()
		}
	}
	if err := r.Err(); err != nil {
		return req, fmt.Errorf("rpc: malformed mig-ctl frame: %w", err)
	}
	return req, nil
}

func sortedMigKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; table sets are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// migCtlReply executes one muxMigCtl frame against the connection's
// migration participant (nil when unsupported) and returns the reply's
// kind and body. Called from the demux loop or a session worker; the
// participant must be concurrency-safe.
func migCtlReply(mp MigParticipant, f muxFrame) (byte, []byte) {
	if mp == nil {
		return muxReplyErr, []byte("rpc: peer does not support range migration")
	}
	req, err := decodeMigRequest(f.body)
	if err != nil {
		return muxReplyErr, []byte(err.Error())
	}
	tok, err := mp.MigCtl(f.sid, req)
	if err != nil {
		return muxReplyErr, []byte(err.Error())
	}
	return muxReplyMig, binary.LittleEndian.AppendUint64(nil, tok)
}
