package runtime

// Regression tests for the transfer-failure lock-leak family: a
// control transfer that dies mid-entry must roll back the APP-side
// transaction (any error, not just ErrOverloaded), and corrupt stacks
// must hand partially-decoded frames back to the session frame pool.

import (
	"errors"
	"testing"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// splitTouchSrc opens a transaction and X-locks a row on the APP side, then
// calls a method whose body tests place on the DB — forcing a control
// transfer with the transaction open. poke's argument is the update's
// affected-row count, so the partitioner cannot hoist the call above
// the update: the row's X lock is provably held when the transfer
// leaves the APP side.
const splitTouchSrc = `
class Bank {
    Bank() {}

    entry int touch(int k) {
        db.begin();
        int n = db.update("UPDATE acct SET v = v + 1 WHERE k = ?", k);
        int r = poke(n);
        db.commit();
        return r;
    }

    int poke(int k) {
        return k + 7;
    }
}
`

// deadWire is a control-transfer transport whose connection is gone:
// every call fails with a plain (non-ErrOverloaded) transport error.
type deadWire struct{}

func (deadWire) Call([]byte) ([]byte, error) {
	return nil, errors.New("rpc: mux connection lost: io: read/write on closed pipe")
}
func (deadWire) Close() error { return nil }

func bankProgClient(t *testing.T, db *sqldb.DB, remote rpc.Transport) *Client {
	t.Helper()
	compiled := compileWith(t, splitTouchSrc, placeOnDB("Bank", []string{"poke"}))
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE acct (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO acct VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	appPeer := NewPeer(compiled, pdg.App, nil)
	return NewClient(appPeer.NewSession(dbapi.NewLocal(db)), remote)
}

// TestTransferRemoteFailureRollsBackTxn kills the control wire
// mid-entry — after db.begin() and the row-locking update ran on APP,
// before the DB-placed block could execute — and asserts the
// transaction is rolled back: a second session must be able to lock
// the same row immediately instead of parking on a leaked X lock until
// the connection dies.
func TestTransferRemoteFailureRollsBackTxn(t *testing.T) {
	db := sqldb.Open()
	c := bankProgClient(t, db, deadWire{})
	oid, err := c.NewObject("Bank") // ctor is all-APP: no transfer
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CallEntry("Bank.touch", oid, val.IntV(1))
	if err == nil {
		t.Fatal("entry over a dead control wire should fail")
	}
	if errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("wire death misclassified as overload: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec("UPDATE acct SET v = v + 10 WHERE k = 1")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second session: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second session blocked: transfer failure leaked the APP-side transaction's row locks")
	}
	rs, err := db.NewSession().Query("SELECT v FROM acct WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].I; got != 10 {
		t.Errorf("v = %d, want 10 (failed entry's +1 rolled back, second session's +10 applied)", got)
	}
	// The session is clean for a retry: no "already in a transaction".
	if c.Sess.DB.(*dbapi.Local).Sess.InTxn() {
		t.Error("APP-side session still in a transaction after failed entry")
	}
}

// TestTransferRemoteCorruptStackFreesFrames feeds decodeStack
// truncated and corrupt payloads and requires every frame to come back
// to the session frame pool once the failed transfer's stack is dropped
// — an error path that keeps a pool frame shrinks the pool for the
// session's remaining lifetime.
func TestTransferRemoteCorruptStackFreesFrames(t *testing.T) {
	compiled := compileWith(t, calcSrc, nil)
	appPeer := NewPeer(compiled, pdg.App, nil)
	sn := appPeer.NewSession(dbapi.NewLocal(sqldb.Open()))
	m := compiled.Method("Calc.apply")
	if m == nil {
		t.Fatal("method Calc.apply missing")
	}

	// Encode a healthy three-frame stack, then recycle its frames so the
	// pool's steady-state size is observable.
	for i := 0; i < 3; i++ {
		fr := sn.newFrame(m)
		fr.Cont = m.Entry
		sn.stack = append(sn.stack, fr)
	}
	var w rpc.Writer
	sn.encodeStack(&w, m.Entry)
	sn.truncStack(0)
	base := len(sn.framePool)
	if base == 0 {
		t.Fatal("frame pool empty after the stack was dropped; test needs pooled frames to watch")
	}

	// Truncations at every offset: each decode must either fail cleanly
	// or produce a stack we drop — the pool must end at base either way.
	for cut := 1; cut < len(w.Buf); cut++ {
		_ = sn.decodeStack(&rpc.Reader{Buf: w.Buf[:cut]}, m.Entry)
		sn.truncStack(0)
		if got := len(sn.framePool); got != base {
			t.Fatalf("truncation at %d: frame pool %d, want %d (leaked or double-freed)", cut, got, base)
		}
	}

	// A stack whose second frame names an out-of-range method index.
	var bad rpc.Writer
	bad.Byte(stackV2)
	bad.Uvarint(2)
	bad.Uvarint(0)
	bad.Uvarint(uint64(m.Idx))
	bad.Uvarint(0)
	bad.Uvarint(uint64(int64(m.Entry) + 1))
	bad.Buf = appendZeros(bad.Buf, (m.NSlots+7)/8)
	bad.Uvarint(1 << 20) // no such method index
	bad.Uvarint(0)
	bad.Uvarint(uint64(int64(m.Entry) + 1))
	if err := sn.decodeStack(&rpc.Reader{Buf: bad.Buf}, m.Entry); !errors.Is(err, ErrBadTransfer) {
		t.Fatalf("out-of-range method index: decodeStack error %v, want ErrBadTransfer", err)
	}
	sn.truncStack(0)
	if got := len(sn.framePool); got != base {
		t.Fatalf("bad method index: frame pool %d, want %d (first frame leaked)", got, base)
	}
}
