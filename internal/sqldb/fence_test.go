package sqldb

import (
	"errors"
	"testing"
	"time"

	"pyxis/internal/val"
)

func fenceTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	s := db.NewSession()
	mustExec := func(sql string, args ...val.Value) {
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE acct (w_id INT, bal INT, PRIMARY KEY (w_id))")
	for w := int64(1); w <= 6; w++ {
		mustExec("INSERT INTO acct VALUES (?, ?)", val.IntV(w), val.IntV(100*w))
	}
	return db
}

func acctFence(lo, hi int64) FenceSpec {
	return FenceSpec{Tables: map[string]string{"acct": "w_id"}, Lo: lo, Hi: hi}
}

func TestFenceBlocksRangeOnly(t *testing.T) {
	db := fenceTestDB(t)
	tok, err := db.ArmFence(acctFence(2, 3), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	// In-range write and read both refuse with the retryable sentinel.
	if _, err := s.Exec("UPDATE acct SET bal = 0 WHERE w_id = ?", val.IntV(2)); !errors.Is(err, ErrRangeFenced) {
		t.Fatalf("in-range update: got %v, want ErrRangeFenced", err)
	}
	if _, err := s.Query("SELECT bal FROM acct WHERE w_id = ?", val.IntV(3)); !errors.Is(err, ErrRangeFenced) {
		t.Fatalf("in-range select: got %v, want ErrRangeFenced", err)
	}
	// A keyless write on a fenced table is conservatively refused; a
	// keyless read (whole-table audit) passes.
	if _, err := s.Exec("UPDATE acct SET bal = 0 WHERE bal = ?", val.IntV(999)); !errors.Is(err, ErrRangeFenced) {
		t.Fatalf("keyless update: got %v, want ErrRangeFenced", err)
	}
	if _, err := s.Query("SELECT COUNT(*) FROM acct"); err != nil {
		t.Fatalf("keyless select: %v", err)
	}
	// Out-of-range traffic is untouched.
	if _, err := s.Exec("UPDATE acct SET bal = ? WHERE w_id = ?", val.IntV(7), val.IntV(5)); err != nil {
		t.Fatalf("out-of-range update: %v", err)
	}
	if err := db.ReleaseFence(tok, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE acct SET bal = 1 WHERE w_id = ?", val.IntV(2)); err != nil {
		t.Fatalf("post-release update: %v", err)
	}
}

func TestFenceAdoptionExemptsMigrator(t *testing.T) {
	db := fenceTestDB(t)
	tok, err := db.ArmFence(acctFence(1, 2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mig := db.NewSession()
	mig.AdoptFence(tok)
	if _, err := mig.Query("SELECT bal FROM acct WHERE w_id = ?", val.IntV(1)); err != nil {
		t.Fatalf("adopted select: %v", err)
	}
	if _, err := mig.Exec("DELETE FROM acct WHERE w_id = ?", val.IntV(1)); err != nil {
		t.Fatalf("adopted delete: %v", err)
	}
	other := db.NewSession()
	if _, err := other.Exec("DELETE FROM acct WHERE w_id = ?", val.IntV(2)); !errors.Is(err, ErrRangeFenced) {
		t.Fatalf("unadopted delete: got %v, want ErrRangeFenced", err)
	}
}

func TestFenceMovedTombstone(t *testing.T) {
	db := fenceTestDB(t)
	tok, err := db.ArmFence(acctFence(5, 6), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseFence(tok, true); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if _, err := s.Query("SELECT bal FROM acct WHERE w_id = ?", val.IntV(5)); !errors.Is(err, ErrRangeMoved) {
		t.Fatalf("moved select: got %v, want ErrRangeMoved", err)
	}
	if _, err := s.Exec("INSERT INTO acct VALUES (?, ?)", val.IntV(6), val.IntV(0)); !errors.Is(err, ErrRangeMoved) {
		t.Fatalf("moved insert: got %v, want ErrRangeMoved", err)
	}
	// The tombstone is permanent and survives a later fence cycle on a
	// different range.
	tok2, err := db.ArmFence(acctFence(1, 1), time.Minute)
	if err != nil {
		t.Fatalf("second fence after tombstone: %v", err)
	}
	if err := db.ReleaseFence(tok2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT bal FROM acct WHERE w_id = ?", val.IntV(5)); !errors.Is(err, ErrRangeMoved) {
		t.Fatalf("tombstone lost after second fence: %v", err)
	}
	if _, err := s.Query("SELECT bal FROM acct WHERE w_id = ?", val.IntV(4)); err != nil {
		t.Fatalf("unmoved key: %v", err)
	}
}

// TestFenceTTLExpiry is the abandoned-coordinator case: the fence is
// armed and never released (the migrator died between FENCE and
// CUTOVER), so the deadline must release it lazily.
func TestFenceTTLExpiry(t *testing.T) {
	db := fenceTestDB(t)
	if _, err := db.ArmFence(acctFence(1, 6), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if _, err := s.Exec("UPDATE acct SET bal = 0 WHERE w_id = ?", val.IntV(1)); !errors.Is(err, ErrRangeFenced) {
		t.Fatalf("pre-expiry: got %v, want ErrRangeFenced", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := s.Exec("UPDATE acct SET bal = 0 WHERE w_id = ?", val.IntV(1)); err != nil {
		t.Fatalf("post-expiry update should pass: %v", err)
	}
	if armed, _ := db.FenceArmed(); armed {
		t.Fatal("fence still armed after TTL expiry")
	}
	// A fresh fence can arm over the expired one even before any
	// statement cleared it.
	if _, err := db.ArmFence(acctFence(1, 2), time.Minute); err != nil {
		t.Fatalf("re-arm after expiry: %v", err)
	}
}

func TestFenceDoubleArmRefused(t *testing.T) {
	db := fenceTestDB(t)
	tok, err := db.ArmFence(acctFence(1, 2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ArmFence(acctFence(3, 4), time.Minute); !errors.Is(err, ErrFenceBusy) {
		t.Fatalf("double arm: got %v, want ErrFenceBusy", err)
	}
	if err := db.ReleaseFence(tok+99, false); !errors.Is(err, ErrFenceToken) {
		t.Fatalf("bad token release: got %v, want ErrFenceToken", err)
	}
	if err := db.ReleaseFence(tok, false); err != nil {
		t.Fatal(err)
	}
}

// TestFencePositionalInsertKey: an INSERT without a column list is
// fenced by the value in the key column's declared position, not by its
// first value.
func TestFencePositionalInsertKey(t *testing.T) {
	db := Open()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE t (a INT PRIMARY KEY, w INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ArmFence(FenceSpec{Tables: map[string]string{"t": "w"}, Lo: 5, Hi: 5}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (1, 5)"); !errors.Is(err, ErrRangeFenced) {
		t.Errorf("INSERT with w = 5: got %v, want ErrRangeFenced", err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (?, ?)", val.IntV(5), val.IntV(9)); err != nil {
		t.Errorf("INSERT with w = 9: %v", err)
	}
	if _, err := s.Exec("INSERT INTO t (w, a) VALUES (5, 2)"); !errors.Is(err, ErrRangeFenced) {
		t.Errorf("INSERT naming w = 5: got %v, want ErrRangeFenced", err)
	}
}
