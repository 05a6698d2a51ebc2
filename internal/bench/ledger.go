package bench

import (
	"pyxis"
	"pyxis/internal/interp"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// ParallelSource is the driver's ledger workload: every transaction
// explicitly begins, updates an account balance, appends a history
// row, reads the balance back, and commits — so concurrent clients
// hold multi-statement row locks, exercising per-session transaction
// contexts and 2PL contention in the shared database.
const ParallelSource = `
class Ledger {
    int id;

    Ledger(int id) {
        this.id = id;
    }

    entry double deposit(int acct, int seq, double amt) {
        db.begin();
        db.update("UPDATE accounts SET balance = balance + ? WHERE cid = ?", amt, acct);
        db.update("INSERT INTO history VALUES (?, ?, ?)", id, seq, amt);
        table t = db.query("SELECT balance FROM accounts WHERE cid = ?", acct);
        db.commit();
        return t.getDouble(0, 0);
    }

    entry double balance(int acct) {
        table t = db.query("SELECT balance FROM accounts WHERE cid = ?", acct);
        return t.getDouble(0, 0);
    }
}
`

// parallelDB creates the ledger schema with one account per client
// plus one shared account (id = clients), all starting at balance 0.
func parallelDB(clients int) (*sqldb.DB, error) {
	db := sqldb.Open()
	sess := db.NewSession()
	stmts := []string{
		"CREATE TABLE accounts (cid INT PRIMARY KEY, balance DOUBLE)",
		"CREATE TABLE history (owner INT, seq INT, amt DOUBLE, PRIMARY KEY (owner, seq))",
	}
	for _, sql := range stmts {
		if _, err := sess.Exec(sql); err != nil {
			return nil, err
		}
	}
	for i := 0; i <= clients; i++ {
		if _, err := sess.Exec("INSERT INTO accounts VALUES (?, 0.0)", val.IntV(int64(i))); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// ParallelPartition compiles the ledger workload at the given budget
// fraction (1.0 = stored-procedure-like: the whole transaction body on
// the database server, one control transfer per call).
func ParallelPartition(budget float64) (*pyxis.Partition, error) {
	sys, err := pyxis.Load(ParallelSource)
	if err != nil {
		return nil, err
	}
	profDB, err := parallelDB(1)
	if err != nil {
		return nil, err
	}
	err = sys.ProfileWorkload(profDB, func(ip *interp.Interp) error {
		obj, err := ip.NewObject("Ledger", interp.Scalar(val.IntV(0)))
		if err != nil {
			return err
		}
		dep := sys.Prog.Method("Ledger", "deposit")
		bal := sys.Prog.Method("Ledger", "balance")
		for k := 0; k < 10; k++ {
			if _, err := ip.CallEntry(dep, obj, val.IntV(0), val.IntV(int64(k)), val.DoubleV(1)); err != nil {
				return err
			}
		}
		_, err = ip.CallEntry(bal, obj, val.IntV(0))
		return err
	})
	if err != nil {
		return nil, err
	}
	return sys.PartitionAt(budget)
}
