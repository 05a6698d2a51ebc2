package dbapi

// Participant is the DB-server half of two-phase commit: it turns a
// session's open transaction into a prepared sqldb.PreparedTxn keyed
// by the coordinator's global transaction ID, delivers the
// coordinator's commit/abort decision to it, and — because a prepared
// transaction pins its locks — guarantees the in-doubt window is
// bounded: a prepared transaction whose decision never arrives is
// resolved after a deadline by re-querying the coordinator's decision
// log (the resolver), presuming abort when the coordinator is gone or
// has no record.
//
// One Participant is shared across every connection of a server (see
// MuxHandlersTxn): commit and abort are keyed by gid alone, so a
// decision may arrive on a different connection — or after a
// reconnect — than the prepare did.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pyxis/internal/sqldb"
)

// DefaultInDoubtDeadline bounds how long a prepared transaction may
// pin its locks waiting for the coordinator's decision before the
// participant resolves it itself (re-query, else presumed abort).
const DefaultInDoubtDeadline = 5 * time.Second

// outcomeTombstones bounds the per-participant outcome log: decisions
// for the last outcomeTombstones resolved transactions are remembered
// so duplicate decisions stay idempotent; older entries age out
// FIFO (a duplicate arriving later than 4096 transactions behind is a
// coordinator bug, and presumed abort still answers safely).
const outcomeTombstones = 4096

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

// Resolver answers "what did the coordinator decide for gid?" during
// in-doubt recovery. known=false means the coordinator is unreachable
// or has no record — by presumed abort both mean the same thing.
type Resolver func(gid uint64) (commit, known bool)

type preparedRec struct {
	pt    *sqldb.PreparedTxn
	timer *time.Timer
}

// Participant tracks this server's prepared transactions and resolved
// outcomes. Safe for concurrent use from every session of the shard.
type Participant struct {
	deadline time.Duration
	resolver Resolver

	mu           sync.Mutex
	prepared     map[uint64]*preparedRec
	outcomes     map[uint64]TxnState
	outcomeOrder []uint64

	prepares, commits, aborts, inDoubt atomic.Int64
}

// NewParticipant creates a participant with the given in-doubt
// deadline (<= 0 means DefaultInDoubtDeadline) and resolver (nil
// means straight presumed abort on deadline).
func NewParticipant(deadline time.Duration, resolver Resolver) *Participant {
	if deadline <= 0 {
		deadline = DefaultInDoubtDeadline
	}
	return &Participant{
		deadline: deadline,
		resolver: resolver,
		prepared: map[uint64]*preparedRec{},
		outcomes: map[uint64]TxnState{},
	}
}

// Stats reports how many transactions this participant prepared,
// committed, aborted, and resolved via the in-doubt path.
func (p *Participant) Stats() (prepares, commits, aborts, inDoubt int64) {
	return p.prepares.Load(), p.commits.Load(), p.aborts.Load(), p.inDoubt.Load()
}

// Prepare moves sess's open transaction into the prepared state under
// gid and arms the in-doubt deadline. The session is left without a
// transaction (see sqldb.Session.Prepare2PC); only Finish — from a
// decision or the deadline — can release the pinned locks.
func (p *Participant) Prepare(sess *sqldb.Session, gid uint64) (TxnState, error) {
	p.mu.Lock()
	if _, dup := p.prepared[gid]; dup {
		p.mu.Unlock()
		return TxnStateUnknown, fmt.Errorf("dbapi: gid %d already prepared", gid)
	}
	if st, done := p.outcomes[gid]; done {
		p.mu.Unlock()
		return TxnStateUnknown, fmt.Errorf("dbapi: gid %d already resolved (%s)", gid, st)
	}
	p.mu.Unlock()

	pt, err := sess.Prepare2PC()
	if err != nil {
		return TxnStateUnknown, err
	}
	rec := &preparedRec{pt: pt}
	p.mu.Lock()
	p.prepared[gid] = rec
	rec.timer = time.AfterFunc(p.deadline, func() { p.resolveInDoubt(gid) })
	p.mu.Unlock()
	p.prepares.Add(1)
	return TxnStatePrepared, nil
}

// Finish applies a decision for gid. It is idempotent against
// duplicate decisions and answers by presumed abort for
// transactions it has no record of: aborting an unknown gid succeeds
// (there is nothing to undo — either it never prepared here or it
// already aged out), committing one fails (a commit decision for a
// transaction this participant cannot have voted yes on).
func (p *Participant) Finish(gid uint64, commit bool) (TxnState, error) {
	want := TxnStateAborted
	if commit {
		want = TxnStateCommitted
	}
	p.mu.Lock()
	rec := p.prepared[gid]
	if rec == nil {
		st, done := p.outcomes[gid]
		p.mu.Unlock()
		if done {
			if st == want {
				return st, nil
			}
			return st, fmt.Errorf("dbapi: gid %d already resolved (%s), cannot %s", gid, st, want)
		}
		if commit {
			return TxnStateAborted, fmt.Errorf("dbapi: gid %d not prepared here (presumed abort)", gid)
		}
		return TxnStateAborted, nil
	}
	delete(p.prepared, gid)
	p.recordOutcome(gid, want)
	p.mu.Unlock()

	rec.timer.Stop()
	// Count before the locks drop: whoever can see the outcome in the
	// data can see it in Stats.
	var err error
	if commit {
		p.commits.Add(1)
		err = rec.pt.Commit()
	} else {
		p.aborts.Add(1)
		err = rec.pt.Abort()
	}
	if err != nil {
		return TxnStateUnknown, err
	}
	return want, nil
}

// Status answers a coordinator's (or operator's) state query. No
// record at all means presumed abort.
func (p *Participant) Status(gid uint64) TxnState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.prepared[gid]; ok {
		return TxnStatePrepared
	}
	if st, ok := p.outcomes[gid]; ok {
		return st
	}
	return TxnStateAborted
}

// resolveInDoubt fires when a prepared transaction's decision never
// arrived: re-query the coordinator's decision log, presume abort if
// it is unreachable or has no record. The resolver runs outside the
// participant mutex (it may itself be a network call).
func (p *Participant) resolveInDoubt(gid uint64) {
	p.mu.Lock()
	_, still := p.prepared[gid]
	p.mu.Unlock()
	if !still {
		return // the decision won the race
	}
	commit := false
	if p.resolver != nil {
		if c, known := p.resolver(gid); known {
			commit = c
		}
	}
	p.inDoubt.Add(1)
	_, _ = p.Finish(gid, commit)
}

// recordOutcome logs gid's decision in the bounded tombstone FIFO.
// Caller holds p.mu.
func (p *Participant) recordOutcome(gid uint64, st TxnState) {
	p.outcomes[gid] = st
	p.outcomeOrder = append(p.outcomeOrder, gid)
	if len(p.outcomeOrder) > outcomeTombstones {
		delete(p.outcomes, p.outcomeOrder[0])
		p.outcomeOrder = p.outcomeOrder[1:]
	}
}
