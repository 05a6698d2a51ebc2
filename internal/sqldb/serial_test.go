package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pyxis/internal/val"
)

// This file holds the serializability property test for the sharded
// engine: random transactions interleaved by real goroutines over
// several tables must leave exactly the state a sequential replay of
// the committed transactions (in commit order) produces. Strict 2PL
// makes commit order a valid serialization order, and every write the
// workload issues is deterministic given the database state at its
// serialization point, so the replay is an exact oracle.

// serialOp is one deterministic, replayable statement. A zeroing op
// first reads SUM(amt) over the whole journal and passes its negation
// as the statement's last argument: a whole-table read whose result
// feeds a write. It replays exactly only if no insert or delete that
// commits before it slipped past its read (a phantom).
type serialOp struct {
	sql    string
	args   []val.Value
	zeroes bool
}

func (op serialOp) exec(s *Session) error {
	args := op.args
	if op.zeroes {
		rs, err := s.Query("SELECT SUM(amt) FROM journal")
		if err != nil {
			return err
		}
		args = append(slices.Clone(args), val.IntV(-rs.Rows[0][0].I))
	}
	_, err := s.Exec(op.sql, args...)
	return err
}

// serialTxn is one committed transaction: its ops plus the commit
// ticket that fixes its position in the serialization order. The
// ticket is taken immediately before Commit: any transaction that
// conflicts with this one is still blocked on this transaction's locks
// at that instant, so its own ticket is necessarily later.
type serialTxn struct {
	order int64
	ops   []serialOp
}

func serialSchema(tb testing.TB, db *DB) {
	s := db.NewSession()
	ddl := []string{
		"CREATE TABLE acct (id INT PRIMARY KEY, bal INT)",
		"CREATE TABLE vault (id INT PRIMARY KEY, bal INT)",
		"CREATE TABLE journal (wid INT, seq INT, amt INT, PRIMARY KEY (wid, seq))",
	}
	for _, q := range ddl {
		if _, err := s.Exec(q); err != nil {
			tb.Fatalf("ddl %q: %v", q, err)
		}
	}
	for i := 0; i < 8; i++ {
		for _, tbl := range []string{"acct", "vault"} {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO %s VALUES (?, 100)", tbl), val.IntV(int64(i))); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// randomTxnOps derives a deterministic little transaction from rng:
// additive updates, cross-table transfers, conditional halvings, and
// journal inserts keyed so they never collide across workers, among
// them one that zeroes the journal's sum.
func randomTxnOps(rng *rand.Rand, worker int, seq *int) []serialOp {
	n := 1 + rng.Intn(3)
	ops := make([]serialOp, 0, n)
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(8))
		switch rng.Intn(7) {
		case 0:
			ops = append(ops, serialOp{sql: "UPDATE acct SET bal = bal + ? WHERE id = ?",
				args: []val.Value{val.IntV(int64(rng.Intn(9) - 4)), val.IntV(k)}})
		case 1:
			ops = append(ops, serialOp{sql: "UPDATE vault SET bal = bal + ? WHERE id = ?",
				args: []val.Value{val.IntV(int64(rng.Intn(9) - 4)), val.IntV(k)}})
		case 2:
			// Transfer: the two statements touch two tables, exercising
			// cross-shard transactions.
			amt := int64(rng.Intn(5))
			ops = append(ops,
				serialOp{sql: "UPDATE acct SET bal = bal - ? WHERE id = ?", args: []val.Value{val.IntV(amt), val.IntV(k)}},
				serialOp{sql: "UPDATE vault SET bal = bal + ? WHERE id = ?", args: []val.Value{val.IntV(amt), val.IntV(k)}})
		case 3:
			// State-dependent but deterministic at the serialization
			// point.
			ops = append(ops, serialOp{sql: "UPDATE acct SET bal = bal * 2 WHERE id = ? AND bal < 120",
				args: []val.Value{val.IntV(k)}})
		case 4:
			*seq++
			ops = append(ops, serialOp{sql: "INSERT INTO journal VALUES (?, ?, ?)",
				args: []val.Value{val.IntV(int64(worker)), val.IntV(int64(*seq)), val.IntV(k)}})
		case 5:
			// Delete a journal row this worker may have written earlier:
			// exercises tombstoning and commit-time slot recycling (the
			// freed slot can be re-allocated by a concurrent insert).
			ops = append(ops, serialOp{sql: "DELETE FROM journal WHERE wid = ? AND seq = ?",
				args: []val.Value{val.IntV(int64(worker)), val.IntV(int64(1 + rng.Intn(*seq+1)))}})
		case 6:
			// Race the inserts and deletes above with a whole-table read.
			*seq++
			ops = append(ops, serialOp{sql: "INSERT INTO journal VALUES (?, ?, ?)",
				args: []val.Value{val.IntV(int64(worker)), val.IntV(int64(*seq))}, zeroes: true})
		}
	}
	return ops
}

// TestSerializesToCommitOrder is the property test: W workers × T
// random transactions run concurrently against the sharded engine;
// the committed transactions replayed sequentially in commit order on
// a fresh database must produce the identical final state.
func TestSerializesToCommitOrder(t *testing.T) {
	const workers, txnsPerWorker = 8, 40

	db := Open()
	serialSchema(t, db)

	var commitTicket atomic.Int64
	committed := make([][]serialTxn, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 13))
			s := db.NewSession()
			seq := 0
			for i := 0; i < txnsPerWorker; i++ {
				ops := randomTxnOps(rng, w, &seq)
				if err := s.Begin(); err != nil {
					t.Error(err)
					return
				}
				failed := false
				for _, op := range ops {
					if err := op.exec(s); err != nil {
						// Deadlock victims roll back and are simply not
						// part of the committed history.
						failed = true
						if s.InTxn() {
							_ = s.Rollback()
						}
						break
					}
				}
				if failed {
					continue
				}
				// The ticket is taken while this transaction still holds
				// every lock it acquired; see serialTxn.
				order := commitTicket.Add(1)
				if err := s.Commit(); err != nil {
					t.Error(err)
					return
				}
				committed[w] = append(committed[w], serialTxn{order: order, ops: ops})
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sequential replay in commit order on a fresh database.
	history := make([]serialTxn, 0, workers*txnsPerWorker)
	for _, txns := range committed {
		history = append(history, txns...)
	}
	if len(history) == 0 {
		t.Fatal("no transactions committed")
	}
	byOrder := make(map[int64]serialTxn, len(history))
	min, max := history[0].order, history[0].order
	for _, txn := range history {
		byOrder[txn.order] = txn
		if txn.order < min {
			min = txn.order
		}
		if txn.order > max {
			max = txn.order
		}
	}

	ref := Open()
	serialSchema(t, ref)
	rs := ref.NewSession()
	for o := min; o <= max; o++ {
		txn, ok := byOrder[o]
		if !ok {
			continue // ticket taken by a txn whose Commit we never saw — impossible here, but harmless
		}
		if err := rs.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, op := range txn.ops {
			if err := op.exec(rs); err != nil {
				t.Fatalf("replay order %d %q: %v", o, op.sql, err)
			}
		}
		if err := rs.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	got, want := db.Snapshot(), ref.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("table count differs: %d vs %d", len(got), len(want))
	}
	for name, wantRows := range want {
		gotRows := got[name]
		if len(gotRows) != len(wantRows) {
			t.Errorf("%s: %d rows concurrent vs %d replayed", name, len(gotRows), len(wantRows))
			continue
		}
		for i := range wantRows {
			if len(gotRows[i]) != len(wantRows[i]) {
				t.Errorf("%s row %d: width differs", name, i)
				continue
			}
			for j := range wantRows[i] {
				if !gotRows[i][j].Equal(wantRows[i][j]) {
					t.Errorf("%s row %d col %d: concurrent %v != replayed %v",
						name, i, j, gotRows[i][j], wantRows[i][j])
				}
			}
		}
	}
}
