package runtime

// Coordinator is the app side of two-phase commit over the sharded DB
// tier. A distributed transaction runs its per-shard branches on
// ordinary dbapi sessions (one per participant shard); the coordinator
// then drives prepare/commit as dbapi calls on each branch's own
// session — the decision point is Decide, called after every
// participant voted yes and before any phase-2 call leaves.
//
// Recovery is presumed abort. The decisions map is the commit log: a
// gid recorded true is committed; a gid recorded false, or not
// recorded at all, is aborted. Participants that time out in prepared
// state re-query this log through dbapi.Participant's resolver (wired
// to Outcome), so a commit lost to a dead connection still
// commits and a coordinator crash before the decision still aborts —
// never a split outcome. The log is bounded FIFO: an entry aging out
// reads as "no record", which presumed abort only makes safe because
// entries far outlive any participant's in-doubt deadline.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
)

// coordinatorLogCap bounds the decision log. At TPC-C rates a
// distributed commit decision is needed by participants for at most
// one in-doubt deadline (~seconds); 1<<16 entries is orders of
// magnitude more history than that window can need.
const coordinatorLogCap = 1 << 16

// ErrTxnAborted reports that a distributed transaction was aborted
// during 2PC (a participant voted no, timed out, or its shard died).
var ErrTxnAborted = errors.New("runtime: distributed transaction aborted")

// Coordinator runs presumed-abort two-phase commit. Safe for
// concurrent use by every client goroutine of a ShardedClient.
type Coordinator struct {
	// Deadline bounds each per-participant control call so a stalled or
	// dead shard cannot wedge the coordinator (<= 0 means
	// rpc.DefaultTxnDeadline).
	Deadline time.Duration

	nextGID atomic.Uint64

	mu        sync.Mutex
	decisions map[uint64]bool
	order     []uint64

	commits, aborts, inDoubt atomic.Int64
}

// NewCoordinator creates a coordinator with the given per-participant
// deadline. GIDs are seeded from the wall clock so distinct
// coordinator incarnations (restarts, tests) do not reuse IDs within
// a participant's tombstone horizon.
func NewCoordinator(deadline time.Duration) *Coordinator {
	c := &Coordinator{Deadline: deadline, decisions: map[uint64]bool{}}
	c.nextGID.Store(uint64(time.Now().UnixNano()) << 16)
	return c
}

// NewGID mints a fresh global transaction ID.
func (c *Coordinator) NewGID() uint64 { return c.nextGID.Add(1) }

// Decide records the outcome for gid in the decision log. Recording
// true is *the* commit point of the protocol: it must happen after
// every participant has prepared and before any commit is sent, so a
// participant that re-queries mid-phase-2 sees the decision the calls
// are delivering.
func (c *Coordinator) Decide(gid uint64, commit bool) {
	c.mu.Lock()
	if _, dup := c.decisions[gid]; !dup {
		c.decisions[gid] = commit
		c.order = append(c.order, gid)
		if len(c.order) > coordinatorLogCap {
			delete(c.decisions, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
}

// Outcome answers a participant's in-doubt re-query from the decision
// log; it matches dbapi.Resolver. known=false (no record) means abort
// by presumption.
func (c *Coordinator) Outcome(gid uint64) (commit, known bool) {
	c.mu.Lock()
	commit, known = c.decisions[gid]
	c.mu.Unlock()
	return commit, known
}

// Stats reports distributed-transaction outcomes: commits, aborts, and
// commits whose phase 2 left at least one participant in doubt
// (decision recorded, delivery failed — the participant converges via
// re-query).
func (c *Coordinator) Stats() (commits, aborts, inDoubt int64) {
	return c.commits.Load(), c.aborts.Load(), c.inDoubt.Load()
}

// Commit runs two-phase commit for gid across parts, whose per-shard
// transaction branches must be open (statements done, not yet
// committed). On nil every branch is committed; on error every branch
// is aborted or will converge to abort, and the caller's transaction
// is dead either way.
//
// Phase 1 prepares each participant in turn under the per-participant
// deadline; any refusal, timeout (rpc.ErrTxnDeadline), or dead shard
// (rpc.ErrPoolPoisoned) vetoes the commit: the abort is recorded and
// delivered to every participant that already prepared, and to one
// whose prepare timed out (an unreachable one aborts itself at its
// in-doubt deadline — no record in the log reads as abort). Phase 2
// records the commit, then delivers it; delivery failures do NOT fail
// the transaction — the decision is logged, the stalled participant
// re-queries and commits late.
func (c *Coordinator) Commit(gid uint64, parts ...*dbapi.Client) error {
	for i, p := range parts {
		st, err := p.Prepare(gid, c.Deadline)
		if err == nil && st != dbapi.TxnStatePrepared {
			err = fmt.Errorf("participant %d voted %s", i, st)
		}
		if err != nil {
			c.Decide(gid, false)
			c.aborts.Add(1)
			// Best-effort abort of the participants that did prepare. A
			// timed-out prepare is still queued on its session and may
			// yet prepare, holding its locks until the in-doubt deadline:
			// the abort rides the same session and lands right after it.
			// A refusal is not aborted — the gid it refused may be
			// another transaction's — and a dead shard presumes abort on
			// its own deadline.
			aborts := parts[:i]
			if errors.Is(err, rpc.ErrTxnDeadline) {
				aborts = parts[:i+1]
			}
			for _, q := range aborts {
				_, _ = q.Decide(gid, false, c.Deadline)
			}
			// Double-wrap so callers can match both the outcome
			// (ErrTxnAborted) and the cause (ErrTxnDeadline for a stall,
			// ErrPoolPoisoned for a dead shard).
			return fmt.Errorf("%w: prepare on participant %d: %w", ErrTxnAborted, i, err)
		}
	}

	c.Decide(gid, true) // the commit point
	c.commits.Add(1)
	for _, p := range parts {
		if _, err := p.Decide(gid, true, c.Deadline); err != nil {
			// Committed but not yet everywhere: the participant holds its
			// locks until its in-doubt deadline re-queries the decision.
			c.inDoubt.Add(1)
		}
	}
	return nil
}

// Abort aborts gid on every participant (used when a branch statement
// failed before prepare was attempted anywhere).
func (c *Coordinator) Abort(gid uint64, parts ...*dbapi.Client) {
	c.Decide(gid, false)
	c.aborts.Add(1)
	for _, p := range parts {
		_, _ = p.Decide(gid, false, c.Deadline)
	}
}
