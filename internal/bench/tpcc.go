package bench

import (
	"fmt"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/sim"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TPCCConfig scales the TPC-C-like database (paper §7.1; our scale is
// reduced so simulated sweeps stay fast — relative behaviour, not
// absolute gigabytes, is what the experiments compare).
type TPCCConfig struct {
	Warehouses    int
	DistrictsPerW int
	CustomersPerD int
	Items         int
	// MinLines/MaxLines bound order-line counts per new-order.
	MinLines, MaxLines int
	// RollbackPct is the percentage of transactions rolled back (paper: 10).
	RollbackPct int
}

// DefaultTPCC returns the evaluation configuration.
func DefaultTPCC() TPCCConfig {
	return TPCCConfig{
		Warehouses:    4,
		DistrictsPerW: 10,
		CustomersPerD: 30,
		Items:         1000,
		MinLines:      3,
		MaxLines:      7,
		RollbackPct:   10,
	}
}

var tpccDDL = []string{
	"CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name VARCHAR(10), w_tax DOUBLE, w_ytd DOUBLE)",
	"CREATE TABLE district (d_w_id INT, d_id INT, d_tax DOUBLE, d_ytd DOUBLE, d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))",
	"CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_last VARCHAR(16), c_discount DOUBLE, c_balance DOUBLE, PRIMARY KEY (c_w_id, c_d_id, c_id))",
	"CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_ol_cnt INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
	"CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT, PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
	"CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_quantity INT, ol_amount DOUBLE, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
	"CREATE TABLE item (i_id INT PRIMARY KEY, i_name VARCHAR(24), i_price DOUBLE)",
	"CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd DOUBLE, s_order_cnt INT, PRIMARY KEY (s_w_id, s_i_id))",
}

// Load builds and populates a TPC-C database: c's warehouses with
// their districts, customers and stock, and the read-only item catalog.
func (c TPCCConfig) Load() *sqldb.DB {
	db := sqldb.Open()
	s := db.NewSession()
	must := func(sql string, args ...val.Value) {
		if _, err := s.Exec(sql, args...); err != nil {
			panic(fmt.Sprintf("tpcc load: %s: %v", sql, err))
		}
	}
	for _, ddl := range tpccDDL {
		must(ddl)
	}
	for w := 1; w <= c.Warehouses; w++ {
		must("INSERT INTO warehouse VALUES (?, ?, ?, 0.0)",
			val.IntV(int64(w)), val.StrV(fmt.Sprintf("wh%d", w)), val.DoubleV(float64(w%5)*0.02))
		for d := 1; d <= c.DistrictsPerW; d++ {
			must("INSERT INTO district VALUES (?, ?, ?, 0.0, 1)",
				val.IntV(int64(w)), val.IntV(int64(d)), val.DoubleV(float64(d%5)*0.015))
			for cu := 1; cu <= c.CustomersPerD; cu++ {
				must("INSERT INTO customer VALUES (?, ?, ?, ?, ?, 0.0)",
					val.IntV(int64(w)), val.IntV(int64(d)), val.IntV(int64(cu)),
					val.StrV(fmt.Sprintf("cust%d", cu)), val.DoubleV(float64(cu%10)*0.01))
			}
		}
		for i := 1; i <= c.Items; i++ {
			must("INSERT INTO stock VALUES (?, ?, ?, 0.0, 0)",
				val.IntV(int64(w)), val.IntV(int64(i)), val.IntV(int64(50+i%50)))
		}
	}
	for i := 1; i <= c.Items; i++ {
		must("INSERT INTO item VALUES (?, ?, ?)",
			val.IntV(int64(i)), val.StrV(fmt.Sprintf("item-%d", i)), val.DoubleV(1.0+float64(i%100)*0.25))
	}
	return db
}

// TPCCSource is the new-order transaction in PyxJ — the program Pyxis
// partitions. The item-selection LCG runs inside the transaction so
// entry parameters stay scalar.
const TPCCSource = `
class TPCC {
    int lastOrderId;

    TPCC() {
        lastOrderId = 0;
    }

    entry double newOrder(int wid, int did, int cid, int olcnt, int seed, int nitems, bool doRollback) {
        db.begin();
        table wt = db.query("SELECT w_tax FROM warehouse WHERE w_id = ?", wid);
        double wtax = wt.getDouble(0, 0);
        table dt = db.query("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", wid, did);
        double dtax = dt.getDouble(0, 0);
        int oid = dt.getInt(0, 1);
        db.update("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?", wid, did);
        table ct = db.query("SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", wid, did, cid);
        double disc = ct.getDouble(0, 0);
        db.update("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", wid, did, oid, cid, olcnt);
        db.update("INSERT INTO new_order VALUES (?, ?, ?)", wid, did, oid);
        double total = 0;
        int rnd = seed;
        int ol = 1;
        while (ol <= olcnt) {
            rnd = (rnd * 1103515245 + 12345) % 100000;
            if (rnd < 0) {
                rnd = -rnd;
            }
            int iid = (rnd % nitems) + 1;
            int qty = (rnd % 10) + 1;
            table ist = db.query("SELECT i_price, s_quantity FROM item, stock WHERE i_id = ? AND s_w_id = ? AND s_i_id = ?", iid, wid, iid);
            double price = ist.getDouble(0, 0);
            int squant = ist.getInt(0, 1);
            int newq = squant - qty;
            if (newq < 10) {
                newq = newq + 91;
            }
            db.update("UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?", newq, qty, wid, iid);
            double amount = price * qty;
            total += amount;
            db.update("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)", wid, did, oid, ol, iid, qty, amount);
            ol++;
        }
        total = total * (1.0 + wtax + dtax) * (1.0 - disc);
        lastOrderId = oid;
        if (doRollback) {
            db.rollback();
        } else {
            db.commit();
        }
        return total;
    }

    entry int lastOrder() {
        return lastOrderId;
    }

    entry double payment(int wid, int did, int cid, double amount) {
        db.begin();
        db.update("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?", amount, wid);
        db.update("UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?", amount, wid, did);
        db.update("UPDATE customer SET c_balance = c_balance - ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", amount, wid, did, cid);
        table t = db.query("SELECT w_ytd FROM warehouse WHERE w_id = ?", wid);
        db.commit();
        return t.getDouble(0, 0);
    }
}
`

// newOrderRemoteStmts issues the remote-supply NewOrder statements in
// conn's ALREADY OPEN transaction: the order bookkeeping (district
// counter, orders, new_order, order_line) books at home warehouse wid,
// while every line's stock draws from supply warehouse swid.
// Commit/abort is the caller's.
func (c TPCCConfig) newOrderRemoteStmts(conn dbapi.Conn, wid, did, cid, olcnt, seed, swid int64) (float64, error) {
	wt, err := conn.Query("SELECT w_tax FROM warehouse WHERE w_id = ?", val.IntV(wid))
	if err != nil {
		return 0, err
	}
	wtax := wt.Rows[0][0].F
	dt, err := conn.Query("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
		val.IntV(wid), val.IntV(did))
	if err != nil {
		return 0, err
	}
	dtax := dt.Rows[0][0].F
	oid := dt.Rows[0][1].I
	if _, err := conn.Exec("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?",
		val.IntV(wid), val.IntV(did)); err != nil {
		return 0, err
	}
	ct, err := conn.Query("SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
		val.IntV(wid), val.IntV(did), val.IntV(cid))
	if err != nil {
		return 0, err
	}
	disc := ct.Rows[0][0].F
	if _, err := conn.Exec("INSERT INTO orders VALUES (?, ?, ?, ?, ?)",
		val.IntV(wid), val.IntV(did), val.IntV(oid), val.IntV(cid), val.IntV(olcnt)); err != nil {
		return 0, err
	}
	if _, err := conn.Exec("INSERT INTO new_order VALUES (?, ?, ?)",
		val.IntV(wid), val.IntV(did), val.IntV(oid)); err != nil {
		return 0, err
	}
	total := 0.0
	rnd := seed
	for ol := int64(1); ol <= olcnt; ol++ {
		rnd = lcg(rnd)
		iid := rnd%int64(c.Items) + 1
		qty := rnd%10 + 1
		ist, err := conn.Query("SELECT i_price, s_quantity FROM item, stock WHERE i_id = ? AND s_w_id = ? AND s_i_id = ?",
			val.IntV(iid), val.IntV(swid), val.IntV(iid))
		if err != nil {
			return 0, err
		}
		price := ist.Rows[0][0].F
		squant := ist.Rows[0][1].I
		newq := squant - qty
		if newq < 10 {
			newq += 91
		}
		if _, err := conn.Exec("UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?",
			val.IntV(newq), val.IntV(qty), val.IntV(swid), val.IntV(iid)); err != nil {
			return 0, err
		}
		amount := price * float64(qty)
		total += amount
		if _, err := conn.Exec("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)",
			val.IntV(wid), val.IntV(did), val.IntV(oid), val.IntV(ol), val.IntV(iid),
			val.IntV(qty), val.DoubleV(amount)); err != nil {
			return 0, err
		}
	}
	return total * (1.0 + wtax + dtax) * (1.0 - disc), nil
}

// lcg matches the PyxJ transaction's item-selection generator.
func lcg(rnd int64) int64 {
	rnd = (rnd*1103515245 + 12345) % 100000
	if rnd < 0 {
		rnd = -rnd
	}
	return rnd
}

// txnParams derives deterministic new-order parameters from a
// transaction sequence number.
func (c TPCCConfig) txnParams(k int64) (wid, did, cid, olcnt, seed int64, rollback bool) {
	h := k*2654435761 + 104729
	if h < 0 {
		h = -h
	}
	wid = h%int64(c.Warehouses) + 1
	did = (h/7)%int64(c.DistrictsPerW) + 1
	cid = (h/61)%int64(c.CustomersPerD) + 1
	olcnt = int64(c.MinLines) + (h/997)%int64(c.MaxLines-c.MinLines+1)
	seed = h % 99991
	rollback = int(h/13)%100 < c.RollbackPct
	return
}

// newOrderNative is the hand-written transaction logic, shared by the
// JDBC and Manual implementations: newOrderRemoteStmts with every line
// supplied by the home warehouse, in one transaction. It issues exactly
// the SQL the PyxJ version issues.
func (c TPCCConfig) newOrderNative(conn dbapi.Conn, wid, did, cid, olcnt, seed int64, rollback bool) (float64, error) {
	if err := conn.Begin(); err != nil {
		return 0, err
	}
	total, err := c.newOrderRemoteStmts(conn, wid, did, cid, olcnt, seed, wid)
	if err != nil {
		_ = conn.Rollback()
		return 0, err
	}
	if rollback {
		return total, conn.Rollback()
	}
	return total, conn.Commit()
}

// JDBCWorkload is the client-side-queries implementation: logic on the
// application server, one round trip per database operation.
func (c TPCCConfig) JDBCWorkload() Workload {
	return Workload{
		Name:  "JDBC",
		NewDB: c.Load,
		NewClient: func(db *sqldb.DB, p *sim.Proc, env *Env, id int) func(int64) error {
			conn := newSimConn(db, env, pdg.App)
			return func(k int64) error {
				wid, did, cid, olcnt, seed, rb := c.txnParams(k)
				env.Logic(pdg.App, env.CM.NativeLogicCost)
				_, err := c.newOrderNative(conn, wid, did, cid, olcnt, seed, rb)
				return err
			}
		},
	}
}

// ManualWorkload is the hand-converted stored-procedure implementation:
// one RPC ships the parameters to the database server, which runs the
// logic colocated with the DBMS.
func (c TPCCConfig) ManualWorkload() Workload {
	return Workload{
		Name:  "Manual",
		NewDB: c.Load,
		NewClient: func(db *sqldb.DB, p *sim.Proc, env *Env, id int) func(int64) error {
			conn := newSimConn(db, env, pdg.DB)
			return func(k int64) error {
				wid, did, cid, olcnt, seed, rb := c.txnParams(k)
				env.Link.Transfer(p, 96) // RPC request with txn arguments
				env.Logic(pdg.DB, env.CM.NativeLogicCost)
				_, err := c.newOrderNative(conn, wid, did, cid, olcnt, seed, rb)
				env.Link.Transfer(p, 32) // RPC response
				return err
			}
		},
	}
}

// PyxisPartition profiles the PyxJ transaction and solves a partition
// at the given budget fraction.
func (c TPCCConfig) PyxisPartition(budgetFrac float64) (*pyxis.Partition, error) {
	sys, err := profiledTPCCSystem(c)
	if err != nil {
		return nil, err
	}
	return sys.PartitionAt(budgetFrac)
}

// PyxisWorkload runs the partitioned PyxJ program under the simulator.
func (c TPCCConfig) PyxisWorkload(part *pyxis.Partition) Workload {
	return Workload{
		Name:  "Pyxis",
		NewDB: c.Load,
		NewClient: func(db *sqldb.DB, p *sim.Proc, env *Env, id int) func(int64) error {
			sc := NewSimClient(part.Compiled, db, p, env)
			oid, err := sc.Client.NewObject("TPCC")
			if err != nil {
				panic(err)
			}
			return func(k int64) error {
				wid, did, cid, olcnt, seed, rb := c.txnParams(k)
				_, err := sc.Client.CallEntry("TPCC.newOrder", oid,
					val.IntV(wid), val.IntV(did), val.IntV(cid), val.IntV(olcnt),
					val.IntV(seed), val.IntV(int64(c.Items)), val.BoolV(rb))
				if err != nil {
					// Abort any open transaction so its locks release.
					sc.RollbackAll()
					return err
				}
				return nil
			}
		},
	}
}
