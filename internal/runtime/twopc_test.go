package runtime

// Two-phase-commit tests: the coordinator/participant protocol over
// real mux connections (net.Pipe), including the fault-injection paths
// — a coordinator that never decides (presumed abort), a participant
// killed between prepare and commit (recovery by re-querying the
// decision log), and a shard that is dead at prepare time.

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// twopcShard is one participant "shard": its own database, its own
// 2PC participant, served over its own mux connection.
type twopcShard struct {
	db   *sqldb.DB
	part *dbapi.Participant
	cli  *rpc.MuxClient
	conn *dbapi.Client
}

func newTwopcShard(t *testing.T, deadline time.Duration, resolver dbapi.Resolver) *twopcShard {
	return newTwopcShardWrapped(t, deadline, resolver, nil)
}

// newTwopcShardWrapped serves the shard through wrap (nil: as is).
func newTwopcShardWrapped(t *testing.T, deadline time.Duration, resolver dbapi.Resolver, wrap func(rpc.SessionHandlers) rpc.SessionHandlers) *twopcShard {
	t.Helper()
	db := sqldb.Open()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE acct (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 4; k++ {
		if _, err := s.Exec("INSERT INTO acct VALUES (?, 100)", val.IntV(k)); err != nil {
			t.Fatal(err)
		}
	}
	part := dbapi.NewParticipant(deadline, resolver)
	handlers := dbapi.MuxHandlersTxn(db, part, nil)
	if wrap != nil {
		handlers = wrap(handlers)
	}
	srvConn, cliConn := net.Pipe()
	go func() {
		rpc.ServeMuxConn(srvConn, handlers)
		_ = srvConn.Close()
	}()
	cli := rpc.NewMuxClient(cliConn)
	t.Cleanup(func() { _ = cli.Close() })
	return &twopcShard{db: db, part: part, cli: cli, conn: dbapi.NewClient(cli.Session())}
}

// acct reads acct[k] through a fresh local session (not the wire).
func (sh *twopcShard) acct(t *testing.T, k int64) int64 {
	t.Helper()
	rs, err := sh.db.NewSession().Query("SELECT v FROM acct WHERE k = ?", val.IntV(k))
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows[0][0].I
}

// openBranch starts a transaction branch on the shard's wire session.
func (sh *twopcShard) openBranch(t *testing.T, k, delta int64) {
	t.Helper()
	if err := sh.conn.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.conn.Exec("UPDATE acct SET v = v + ? WHERE k = ?", val.IntV(delta), val.IntV(k)); err != nil {
		t.Fatal(err)
	}
}

// mustSoon runs f on a goroutine and fails the test if it neither
// succeeds nor errors within 10s — the signature of leaked locks
// wedging a statement forever.
func mustSoon(t *testing.T, what string, f func() error) {
	t.Helper()
	mustWithin(t, what, 10*time.Second, f)
}

// mustWithin is mustSoon with an explicit bound.
func mustWithin(t *testing.T, what string, d time.Duration, f func() error) {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: timed out after %v (locks leaked?)", what, d)
	}
}

// TestTwoPCCrossShardCommit: the happy path. Two branches on two
// shards, one coordinator commit; both apply, locks release, duplicate
// decisions stay idempotent, and the sessions survive for the
// next transaction.
func TestTwoPCCrossShardCommit(t *testing.T) {
	co := NewCoordinator(2 * time.Second)
	a := newTwopcShard(t, 5*time.Second, co.Outcome)
	b := newTwopcShard(t, 5*time.Second, co.Outcome)
	a.openBranch(t, 1, -10)
	b.openBranch(t, 1, +10)

	gid := co.NewGID()
	if err := co.Commit(gid, a.conn, b.conn); err != nil {
		t.Fatal(err)
	}
	if got := a.acct(t, 1); got != 90 {
		t.Errorf("shard a: v = %d, want 90", got)
	}
	if got := b.acct(t, 1); got != 110 {
		t.Errorf("shard b: v = %d, want 110", got)
	}
	// Locks are gone: a conflicting writer proceeds immediately.
	mustSoon(t, "post-commit writer", func() error {
		_, err := a.db.NewSession().Exec("UPDATE acct SET v = v + 1 WHERE k = 1")
		return err
	})
	// A duplicate commit (coordinator retry) is answered idempotently
	// from the outcome log.
	if st, err := a.conn.Decide(gid, true, time.Second); err != nil || st != dbapi.TxnStateCommitted {
		t.Errorf("duplicate commit: state=%s err=%v, want committed/nil", st, err)
	}
	// The branch sessions are reusable after 2PC.
	if err := a.conn.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.conn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if commits, aborts, _ := co.Stats(); commits != 1 || aborts != 0 {
		t.Errorf("coordinator stats: %d commits, %d aborts, want 1, 0", commits, aborts)
	}
}

// TestTwoPCPrepareVetoAbortsPrepared: a participant with nothing to
// prepare vetoes the commit; the branch that did prepare is aborted
// and its update undone, and the decision log reads abort.
func TestTwoPCPrepareVetoAbortsPrepared(t *testing.T) {
	co := NewCoordinator(2 * time.Second)
	a := newTwopcShard(t, 5*time.Second, co.Outcome)
	b := newTwopcShard(t, 5*time.Second, co.Outcome)
	a.openBranch(t, 2, -100)
	// b never opened a transaction: its prepare vote is "no".

	gid := co.NewGID()
	err := co.Commit(gid, a.conn, b.conn)
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("Commit = %v, want ErrTxnAborted", err)
	}
	mustSoon(t, "read after abort", func() error {
		if got := a.acct(t, 2); got != 100 {
			return fmt.Errorf("shard a: v = %d, want 100 (branch undone)", got)
		}
		return nil
	})
	if commit, known := co.Outcome(gid); known && commit {
		t.Error("decision log records commit for an aborted transaction")
	}
	if st, err := a.conn.Status(gid, time.Second); err != nil || st != dbapi.TxnStateAborted {
		t.Errorf("status on a: %s, %v, want aborted", st, err)
	}
}

// TestTwoPCPresumedAbortOnLostCoordinator: the coordinator prepares a
// branch and then vanishes without deciding. The participant's
// in-doubt deadline fires, the re-query finds no decision record, and
// presumed abort releases the locks with the update undone. A commit
// arriving after that is refused — the split outcome it would
// create is exactly what presumed abort exists to prevent.
func TestTwoPCPresumedAbortOnLostCoordinator(t *testing.T) {
	co := NewCoordinator(2 * time.Second)
	a := newTwopcShard(t, 150*time.Millisecond, co.Outcome)
	a.openBranch(t, 3, -100)

	gid := co.NewGID()
	if st, err := a.conn.Prepare(gid, time.Second); err != nil || st != dbapi.TxnStatePrepared {
		t.Fatalf("prepare: %s, %v", st, err)
	}
	// No Decide, no phase 2 — the coordinator is gone. The conflicting
	// writer below parks on the prepared transaction's X lock until the
	// in-doubt deadline resolves it by presumption.
	mustSoon(t, "writer blocked on in-doubt txn", func() error {
		_, err := a.db.NewSession().Exec("UPDATE acct SET v = v + 1 WHERE k = 3")
		return err
	})
	if got := a.acct(t, 3); got != 101 {
		t.Errorf("v = %d, want 101 (prepared update undone by presumed abort, then +1)", got)
	}
	if st, err := a.conn.Status(gid, time.Second); err != nil || st != dbapi.TxnStateAborted {
		t.Errorf("status: %s, %v, want aborted", st, err)
	}
	if _, err := a.conn.Decide(gid, true, time.Second); err == nil {
		t.Error("commit after presumed abort must be refused, got nil")
	}
	if _, _, _, inDoubt := a.part.Stats(); inDoubt != 1 {
		t.Errorf("participant inDoubt = %d, want 1", inDoubt)
	}
}

// TestTwoPCRemoteParticipantKilledBetweenPrepareAndCommit is the
// fault-injection acceptance case: both participants prepare, the
// decision is recorded, one participant's connection dies before its
// commit arrives. Its in-doubt deadline re-queries the
// coordinator's decision log and commits late — both shards end
// consistent, nothing lost, nothing double-applied.
func TestTwoPCRemoteParticipantKilledBetweenPrepareAndCommit(t *testing.T) {
	co := NewCoordinator(2 * time.Second)
	a := newTwopcShard(t, 5*time.Second, co.Outcome)
	b := newTwopcShard(t, 200*time.Millisecond, co.Outcome)
	a.openBranch(t, 4, -25)
	b.openBranch(t, 4, +25)

	gid := co.NewGID()
	// Phase 1 by hand so the kill lands exactly between the phases.
	for i, sh := range []*twopcShard{a, b} {
		if st, err := sh.conn.Prepare(gid, time.Second); err != nil || st != dbapi.TxnStatePrepared {
			t.Fatalf("prepare on %d: %s, %v", i, st, err)
		}
	}
	co.Decide(gid, true) // the commit point
	if st, err := a.conn.Decide(gid, true, time.Second); err != nil || st != dbapi.TxnStateCommitted {
		t.Fatalf("commit on a: %s, %v", st, err)
	}
	// Kill b's connection with its commit undelivered. The
	// server-side teardown rolls back open sessions — but the prepared
	// transaction is detached from its session, so it survives the
	// teardown still holding its locks.
	_ = b.cli.Close()

	mustSoon(t, "b recovers the commit via re-query", func() error {
		rs, err := b.db.NewSession().Query("SELECT v FROM acct WHERE k = 4")
		if err != nil {
			return err
		}
		if got := rs.Rows[0][0].I; got != 125 {
			return fmt.Errorf("shard b: v = %d, want 125 (recovered commit)", got)
		}
		return nil
	})
	if got := a.acct(t, 4); got != 75 {
		t.Errorf("shard a: v = %d, want 75", got)
	}
	if _, commits, _, inDoubt := b.part.Stats(); commits != 1 || inDoubt != 1 {
		t.Errorf("b stats: commits=%d inDoubt=%d, want 1, 1", commits, inDoubt)
	}
}

// TestTwoPCDeadShardPoisonedAtPrepare: a shard that is already dead
// when prepare is sent is classified as ErrPoolPoisoned (the pool's
// own dead-connection signal), the transaction aborts, and the live
// shard's branch is undone.
func TestTwoPCDeadShardPoisonedAtPrepare(t *testing.T) {
	co := NewCoordinator(2 * time.Second)
	a := newTwopcShard(t, 5*time.Second, co.Outcome)
	b := newTwopcShard(t, 5*time.Second, co.Outcome)
	a.openBranch(t, 1, -5)
	b.openBranch(t, 1, +5)
	_ = b.cli.Close() // shard b dies before phase 1

	gid := co.NewGID()
	err := co.Commit(gid, a.conn, b.conn)
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("Commit = %v, want ErrTxnAborted", err)
	}
	if !errors.Is(err, rpc.ErrPoolPoisoned) {
		t.Errorf("Commit error %v should match ErrPoolPoisoned (dead shard)", err)
	}
	mustSoon(t, "read after dead-shard abort", func() error {
		if got := a.acct(t, 1); got != 100 {
			return fmt.Errorf("shard a: v = %d, want 100", got)
		}
		return nil
	})
}

// stallNth delays the n-th call of every session by d before serving
// it: with a branch's UPDATE (which carries its Begin) before it, n = 2
// is the prepare.
type stallNth struct {
	rpc.SessionHandlers
	n int
	d time.Duration
}

func (s stallNth) Open(sid uint32) rpc.Handler {
	h, calls := s.SessionHandlers.Open(sid), 0
	return func(req []byte) ([]byte, error) {
		if calls++; calls == s.n {
			time.Sleep(s.d)
		}
		return h(req)
	}
}

// TestTwoPCTimedOutPrepareIsAborted: a participant's prepare is still
// queued on its session when the coordinator's deadline expires, and
// prepares late. The coordinator's abort rides the same session behind
// it, so the late prepare's locks go within the stall — not at the
// participant's in-doubt deadline.
func TestTwoPCTimedOutPrepareIsAborted(t *testing.T) {
	const stall, inDoubt = 300 * time.Millisecond, 20 * time.Second
	co := NewCoordinator(50 * time.Millisecond)
	a := newTwopcShard(t, inDoubt, co.Outcome)
	b := newTwopcShardWrapped(t, inDoubt, co.Outcome, func(h rpc.SessionHandlers) rpc.SessionHandlers {
		return stallNth{SessionHandlers: h, n: 2, d: stall}
	})
	a.openBranch(t, 2, -7)
	b.openBranch(t, 2, +7)

	gid := co.NewGID()
	if err := co.Commit(gid, a.conn, b.conn); !errors.Is(err, ErrTxnAborted) || !errors.Is(err, rpc.ErrTxnDeadline) {
		t.Fatalf("Commit = %v, want ErrTxnAborted caused by ErrTxnDeadline", err)
	}
	mustWithin(t, "writer behind the late prepare", 10*stall, func() error {
		_, err := b.db.NewSession().Exec("UPDATE acct SET v = v + 1 WHERE k = 2")
		return err
	})
	if got := b.acct(t, 2); got != 101 {
		t.Errorf("shard b: v = %d, want 101 (late prepare aborted, then +1)", got)
	}
	if got := a.acct(t, 2); got != 100 {
		t.Errorf("shard a: v = %d, want 100", got)
	}
	if _, _, aborts, inDoubt := b.part.Stats(); aborts != 1 || inDoubt != 0 {
		t.Errorf("b stats: aborts=%d inDoubt=%d, want 1, 0", aborts, inDoubt)
	}
}
