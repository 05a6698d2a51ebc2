package runtime

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pyxis/internal/pdg"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// bankSrc is a multi-statement explicit transaction whose two row
// locks are taken in caller-chosen order — concurrent sessions
// transferring in opposite directions produce genuine lock waits and
// (occasionally) deadlocks inside the shared engine.
const bankSrc = `
class Bank {
    int id;

    Bank(int id) {
        this.id = id;
    }

    entry double transfer(int from, int to, double amt) {
        db.begin();
        db.update("UPDATE acct SET bal = bal - ? WHERE id = ?", amt, from);
        db.update("UPDATE acct SET bal = bal + ? WHERE id = ?", amt, to);
        table t = db.query("SELECT bal FROM acct WHERE id = ?", to);
        db.commit();
        return t.getDouble(0, 0);
    }
}
`

// TestConcurrentConflictingTransactions drives concurrent sessions
// whose DB-side transactions cross on two hot rows: money is
// conserved, deadlock victims surface to the client as retryable
// errors (the engine already rolled the victim back), and retries
// succeed — i.e. the sharded engine under the runtime behaves like a
// database, not a data race.
func TestConcurrentConflictingTransactions(t *testing.T) {
	compiled := compileWith(t, bankSrc, func(g *pdg.Graph, place pdg.Placement) {
		m := g.Prog.Method("Bank", "transfer")
		source.WalkMethodStmts(m, func(s source.Stmt) bool {
			place[s.ID()] = pdg.DB
			return true
		})
		place[m.EntryID] = pdg.DB
	})

	db := sqldb.Open()
	seed := db.NewSession()
	if _, err := seed.Exec("CREATE TABLE acct (id INT PRIMARY KEY, bal DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := seed.Exec("INSERT INTO acct VALUES (?, 1000.0)", val.IntV(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	dep := NewDeployment(compiled, db, Options{})
	const sessions, transfers = 8, 1000
	clients := make([]*Client, sessions)
	clients[0] = dep.Client
	for i := 1; i < sessions; i++ {
		clients[i] = dep.NewSession()
	}

	var deadlocks int64
	var mu sync.Mutex
	var wg, ready sync.WaitGroup
	ready.Add(sessions)
	errs := make([]error, sessions)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			oid, err := c.NewObject("Bank", val.IntV(int64(i)))
			// Every session starts transferring at once: a session's
			// transfers take less time than starting the next goroutine,
			// so without the barrier they run one session after another.
			ready.Done()
			ready.Wait()
			if err != nil {
				errs[i] = err
				return
			}
			// Even sessions transfer 1->2, odd sessions 2->1: the lock
			// orders cross deliberately.
			from, to := int64(1), int64(2)
			if i%2 == 1 {
				from, to = to, from
			}
			for k := 0; k < transfers; k++ {
				// Every deadlock abort means the surviving transaction
				// progressed, so retries converge; the bound only guards
				// against a livelocked engine (which would be the bug).
				for attempt := 0; ; attempt++ {
					_, err := c.CallEntry("Bank.transfer", oid, val.IntV(from), val.IntV(to), val.DoubleV(1))
					if err == nil {
						break
					}
					if strings.Contains(err.Error(), "deadlock") && attempt < 1000 {
						mu.Lock()
						deadlocks++
						mu.Unlock()
						continue
					}
					errs[i] = fmt.Errorf("session %d transfer %d: %w", i, k, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	rs, err := seed.Query("SELECT SUM(bal) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].AsFloat(); got != 4000 {
		t.Errorf("total balance %v, want 4000 (money created or destroyed under contention)", got)
	}
	waits, engineDeadlocks := db.LockWaits()
	t.Logf("lock waits=%d engine deadlocks=%d client-visible deadlock retries=%d", waits, engineDeadlocks, deadlocks)
	if deadlocks > 0 && engineDeadlocks == 0 {
		t.Error("client saw deadlock errors the engine never counted")
	}
	// The crossing transfers must actually have contended; with the old
	// global engine mutex this held too, but with sharded latches it is
	// the row-lock manager alone that provides it. On a single
	// schedulable CPU a DB-side transaction runs without a scheduling
	// point, so transactions never overlap and zero waits is the
	// expected (and correct) outcome — only assert overlap when the
	// hardware can produce it.
	if waits == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("crossing transfers produced no lock waits — statements did not overlap")
	}
}
