package sqldb

import (
	"fmt"
	"sync"
	"testing"

	"pyxis/internal/val"
)

// TestPlanCacheParallelFirstTouch is the regression test for the old
// RWMutex plan cache: N sessions first-touching the same (and
// distinct) statements concurrently must neither race nor diverge —
// every session must end up executing the one shared parsed statement.
func TestPlanCacheParallelFirstTouch(t *testing.T) {
	db := Open()
	setup := db.NewSession()
	if _, err := setup.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := setup.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*10)); err != nil {
			t.Fatal(err)
		}
	}

	// 24 distinct statements, 16 workers: every statement's first touch
	// is contended by several workers at once.
	stmts := make([]string, 24)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i%8)
		if i >= 8 {
			// Distinct texts that normalize to the same shape still get
			// their own cache entry; spell them differently.
			stmts[i] = fmt.Sprintf("SELECT v FROM kv WHERE k = %d AND v >= %d", i%8, (i/8)*-1000)
		}
	}

	const workers = 16
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			<-start
			for rep := 0; rep < 4; rep++ {
				for _, q := range stmts {
					if _, err := sess.Query(q); err != nil {
						errs <- fmt.Errorf("%s: %w", q, err)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every repeat parse must converge on the single shared statement
	// object the cache stored.
	for _, q := range stmts {
		a, err := db.parse(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := db.parse(q)
		if a != b {
			t.Fatalf("plan cache returned distinct objects for %q", q)
		}
		// ... and the racing first executions on one shared bound plan,
		// which a later execution reuses instead of replacing.
		cell := a.(dmlStmt).cell()
		p := cell.p.Load()
		if p == nil || !db.planCurrent(p) {
			t.Fatalf("%q: no current bound plan after %d sessions ran it", q, workers)
		}
		if _, err := setup.Query(q); err != nil {
			t.Fatal(err)
		}
		if cell.p.Load() != p {
			t.Fatalf("%q: a warm execution replaced the shared plan", q)
		}
	}
}

// TestPrepareExecParsed covers the prepared execution surface the
// dbapi wire uses: Prepare once, run many, identical results to the
// string path.
func TestPrepareExecParsed(t *testing.T) {
	db := Open()
	sess := db.NewSession()
	intv := func(i int) val.Value { return val.IntV(int64(i)) }
	if _, err := sess.Exec("CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}

	ins, err := sess.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sess.ExecParsed(ins, intv(i), intv(i*i)); err != nil {
			t.Fatal(err)
		}
	}

	sel, err := sess.Prepare("SELECT v FROM t WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rs, err := sess.QueryParsed(sel, intv(i))
		if err != nil {
			t.Fatal(err)
		}
		want, err2 := sess.Query("SELECT v FROM t WHERE k = ?", intv(i))
		if err2 != nil {
			t.Fatal(err2)
		}
		if len(rs.Rows) != 1 || len(want.Rows) != 1 || rs.Rows[0][0].I != want.Rows[0][0].I {
			t.Fatalf("k=%d: prepared %v vs string %v", i, rs.Rows, want.Rows)
		}
	}

	// QueryParsed on a non-SELECT must fail, not panic.
	if _, err := sess.QueryParsed(ins); err == nil {
		t.Error("QueryParsed accepted an INSERT")
	}
}
