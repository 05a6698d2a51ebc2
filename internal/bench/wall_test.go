package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
)

// TestRetryClassifier pins the one place a failed attempt becomes a
// decision: one case per class, in the shapes the errors really arrive
// in (wrapped with %w by the mux, or as the text of a remote runtime
// error), plus the budget.
func TestRetryClassifier(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		attempt int
		want    errClass
	}{
		{"deadlock sentinel over the database wire", fmt.Errorf("exec: %w", sqldb.ErrDeadlock), 0, classDeadlock},
		{"deadlock inside a control transfer", errors.New("runtime: remote: block 7: sqldb: deadlock detected"), 3, classDeadlock},
		{"2PC abort", fmt.Errorf("gid 9: %w", runtime.ErrTxnAborted), 0, classDeadlock},
		{"fenced range", fmt.Errorf("%w: keys [1,2]", sqldb.ErrRangeFenced), 0, classFenced},
		{"moved range", fmt.Errorf("%w: keys [1,2]", sqldb.ErrRangeMoved), 0, classMoved},
		{"wrong shard", fmt.Errorf("%w: key 3", runtime.ErrWrongShard), 0, classMoved},
		{"unknown error", errors.New("duplicate primary key"), 0, classFatal},
		// A gated server sheds only session opens, which runClient
		// retries; a shed at a step is a broken contract.
		{"shed, wrapped", fmt.Errorf("session 3: %w", rpc.ErrOverloaded), 0, classFatal},
		{"deadlock past the budget", sqldb.ErrDeadlock, maxRetries, classFatal},
		// A fence clears when the move commits or its TTL lapses, not
		// after a number of tries.
		{"fenced past the budget", sqldb.ErrRangeFenced, maxRetries, classFenced},
		{"moved past the budget", sqldb.ErrRangeMoved, maxRetries, classMoved},
	}
	for _, c := range cases {
		got, pause := retry(c.err, c.attempt)
		if got != c.want {
			t.Errorf("%s: class %d, want %d", c.name, got, c.want)
		}
		if (got == classFenced || got == classMoved) && pause <= 0 {
			t.Errorf("%s: retried with no pause", c.name)
		}
		if got == classFatal && pause != 0 {
			t.Errorf("%s: fatal with a pause of %v", c.name, pause)
		}
	}
}

// deadConn is a connection whose branch died: every rollback fails.
type deadConn struct {
	dbapi.Conn
	err error
}

func (c deadConn) Rollback() error { return c.err }

// TestRollbackJoinSurfacesFailure: a rollback that fails for any
// reason but "nothing to roll back" must show in the error the caller
// returns — it used to be computed and discarded — without hiding the
// class of the error that caused the abort.
func TestRollbackJoinSurfacesFailure(t *testing.T) {
	cause := fmt.Errorf("update stock: %w", sqldb.ErrDeadlock)
	dead := deadConn{err: errors.New("mux: connection closed")}

	err := rollbackJoin(cause, dead)
	if !errors.Is(err, sqldb.ErrDeadlock) || !strings.Contains(err.Error(), "connection closed") {
		t.Errorf("rollback failure not joined onto the cause: %v", err)
	}
	if class, _ := retry(err, 0); class != classDeadlock {
		t.Errorf("joined error classified %d, want the cause's class", class)
	}
	// The intentional rollback has no cause; a dead branch is then the
	// whole error.
	if err := rollbackJoin(nil, dead); err == nil || !strings.Contains(err.Error(), "connection closed") {
		t.Errorf("failed intentional rollback reported as %v", err)
	}
	// A deadlock victim was rolled back engine-side already.
	gone := deadConn{err: fmt.Errorf("rollback: %w", sqldb.ErrNoTransaction)}
	if err := rollbackJoin(cause, gone); err != cause {
		t.Errorf("ErrNoTransaction joined onto the cause: %v", err)
	}
	if err := rollbackJoin(nil, gone); err != nil {
		t.Errorf("clean intentional rollback reported %v", err)
	}
}

// heldSession counts what drive asked of it.
type heldSession struct{ holds, closes int }

func (s *heldSession) hold() { s.holds++ }
func (s *heldSession) Close() error {
	s.closes++
	return nil
}

// TestDriveHoldsOnlyFinishedClients: a client that ran all its
// transactions holds its session before closing it (the forced
// saturation's admission slot); one leaving on a fatal error closes at
// once, so a failing run reports the failure instead of waiting.
func TestDriveHoldsOnlyFinishedClients(t *testing.T) {
	for _, fail := range []bool{false, true} {
		s := &heldSession{}
		_, err := drive(1, 2, func(int) (*heldSession, error) { return s, nil },
			func(*heldSession, int, int) (txnOut, error) {
				if fail {
					return txnOut{}, errors.New("duplicate primary key")
				}
				return txnOut{}, nil
			})
		if (err != nil) != fail || s.closes != 1 || (s.holds == 1) == fail {
			t.Errorf("fail=%v: err=%v holds=%d closes=%d", fail, err, s.holds, s.closes)
		}
	}
}
