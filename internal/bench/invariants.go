package bench

import (
	"fmt"
	"math"

	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// This file holds the consistency audits the concurrency tests (and
// benchmark/'s set-up gates) end in: what must hold in the databases
// whatever interleaving, placement or shard split produced them. Each
// returns every violation found (nil means consistent).

// CheckLedger audits the ledger workload's lost-update invariant over
// every shard's database: each deposit added exactly 1.0 somewhere, so
// the account balances must sum to the number of deposits. A lost
// update on a contended account shows up as a lower total.
func CheckLedger(dbs []*sqldb.DB, deposits int) []string {
	total := 0.0
	for shard, db := range dbs {
		rs, err := db.NewSession().Query("SELECT balance FROM accounts")
		if err != nil {
			return []string{fmt.Sprintf("shard %d: %v", shard, err)}
		}
		for _, row := range rs.Rows {
			total += row[0].F
		}
	}
	if total != float64(deposits) {
		return []string{fmt.Sprintf("sum of balances = %v after %d deposits (lost update)", total, deposits)}
	}
	return nil
}

// CheckTPCCInvariants audits the consistency invariants the concurrent
// NewOrder/Payment mix must preserve (the wall-clock port of the
// ledger lost-update check):
//
//   - per warehouse, w_ytd equals the sum of its districts' d_ytd
//     (TPC-C consistency condition 1 — Payment books both or neither);
//   - per district, d_next_o_id - 1 equals the number of orders and of
//     new_order rows (condition 2/3 — NewOrder's counter increment and
//     inserts commit or roll back atomically).
//
// It returns every violation found (nil means consistent).
func CheckTPCCInvariants(db *sqldb.DB, c TPCCConfig) []string {
	return CheckTPCCInvariantsRange(db, c, 1, int64(c.Warehouses))
}

// CheckTPCCInvariantsRange audits the invariants for warehouses
// loW..hiW (inclusive) only — the per-shard half of the cross-shard
// aggregator, since a shard's database holds just its own warehouse
// range.
func CheckTPCCInvariantsRange(db *sqldb.DB, c TPCCConfig, loW, hiW int64) []string {
	var violations []string
	s := db.NewSession()
	for w := loW; w <= hiW; w++ {
		wrs, err := s.Query("SELECT w_ytd FROM warehouse WHERE w_id = ?", val.IntV(w))
		if err != nil || len(wrs.Rows) != 1 {
			violations = append(violations, fmt.Sprintf("warehouse %d: %v", w, err))
			continue
		}
		drs, err := s.Query("SELECT SUM(d_ytd) FROM district WHERE d_w_id = ?", val.IntV(w))
		if err != nil {
			violations = append(violations, fmt.Sprintf("district sum w=%d: %v", w, err))
			continue
		}
		// The two totals accumulate the same amounts in different
		// orders, so compare with a relative epsilon: float addition is
		// not associative (current drivers use integer-valued amounts,
		// where the sums are exact, but the API takes arbitrary
		// float64s). A lost update shifts the totals by a whole amount,
		// far outside the tolerance.
		wYTD, dSum := wrs.Rows[0][0].F, drs.Rows[0][0].AsFloat()
		if diff := math.Abs(wYTD - dSum); diff > 1e-6*math.Max(1, math.Abs(wYTD)) {
			violations = append(violations,
				fmt.Sprintf("warehouse %d: w_ytd=%v != sum(d_ytd)=%v (lost Payment update)", w, wYTD, dSum))
		}
		for d := 1; d <= c.DistrictsPerW; d++ {
			nrs, err := s.Query("SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
				val.IntV(w), val.IntV(int64(d)))
			if err != nil || len(nrs.Rows) != 1 {
				violations = append(violations, fmt.Sprintf("district %d/%d: %v", w, d, err))
				continue
			}
			next := nrs.Rows[0][0].I
			ors, err := s.Query("SELECT COUNT(*) FROM orders WHERE o_w_id = ? AND o_d_id = ?",
				val.IntV(w), val.IntV(int64(d)))
			if err != nil {
				violations = append(violations, fmt.Sprintf("orders count %d/%d: %v", w, d, err))
				continue
			}
			nrs2, err := s.Query("SELECT COUNT(*) FROM new_order WHERE no_w_id = ? AND no_d_id = ?",
				val.IntV(w), val.IntV(int64(d)))
			if err != nil {
				violations = append(violations, fmt.Sprintf("new_order count %d/%d: %v", w, d, err))
				continue
			}
			if got := ors.Rows[0][0].I; got != next-1 {
				violations = append(violations,
					fmt.Sprintf("district %d/%d: %d orders but d_next_o_id=%d (want %d)", w, d, got, next, got+1))
			}
			if got := nrs2.Rows[0][0].I; got != next-1 {
				violations = append(violations,
					fmt.Sprintf("district %d/%d: %d new_order rows but d_next_o_id=%d", w, d, got, next))
			}
		}
	}
	return violations
}

// CheckShardInvariants is the cross-shard consistency aggregator over
// dbs, shard i's database at i: it audits each shard's slice with
// CheckTPCCInvariantsRange, verifies ownership is exactly the disjoint
// warehouse ranges WarehouseRange assigns over len(dbs) shards (no
// warehouse duplicated onto or missing from a shard), checks that
// each shard balances its money and its stock on its own, and then
// reconciles the GLOBAL sums across all shards together — total
// warehouse YTD = total district YTD, and total order counters =
// total orders = total new_order rows — so a transaction booked on
// the wrong shard shows up even when every shard is internally
// consistent. It returns every violation found (nil means consistent).
func CheckShardInvariants(dbs []*sqldb.DB, c TPCCConfig) []string {
	var violations []string
	queryOne := func(s *sqldb.Session, sql string) (val.Value, error) {
		rs, err := s.Query(sql)
		if err != nil {
			return val.Value{}, err
		}
		if len(rs.Rows) != 1 || len(rs.Rows[0]) != 1 {
			return val.Value{}, fmt.Errorf("want one value, got %d rows", len(rs.Rows))
		}
		return rs.Rows[0][0], nil
	}
	var totalWarehouses, totalOrders, totalNewOrders, totalNextSum, totalDistricts int64
	var sumWYTD, sumDYTD float64
	for shard, db := range dbs {
		lo, hi := c.WarehouseRange(shard, len(dbs))
		for _, v := range CheckTPCCInvariantsRange(db, c, lo, hi) {
			violations = append(violations, fmt.Sprintf("shard %d: %s", shard, v))
		}
		s := db.NewSession()
		// Ownership: the shard holds exactly its assigned warehouses —
		// the per-set audit above would miss a shard that also carries a
		// stray copy of a sibling's warehouse.
		count, err := queryOne(s, "SELECT COUNT(*) FROM warehouse")
		if err != nil {
			violations = append(violations, fmt.Sprintf("shard %d: warehouse count: %v", shard, err))
			continue
		}
		if want := hi - lo + 1; count.I != want {
			violations = append(violations,
				fmt.Sprintf("shard %d: owns %d warehouses, its range has %d", shard, count.I, want))
		}
		totalWarehouses += count.I
		wytd, err1 := queryOne(s, "SELECT SUM(w_ytd) FROM warehouse")
		dytd, err2 := queryOne(s, "SELECT SUM(d_ytd) FROM district")
		orders, err3 := queryOne(s, "SELECT COUNT(*) FROM orders")
		newOrders, err4 := queryOne(s, "SELECT COUNT(*) FROM new_order")
		nextSum, err5 := queryOne(s, "SELECT SUM(d_next_o_id) FROM district")
		districts, err6 := queryOne(s, "SELECT COUNT(*) FROM district")
		cbal, err7 := queryOne(s, "SELECT SUM(c_balance) FROM customer")
		sytd, err8 := queryOne(s, "SELECT SUM(s_ytd) FROM stock")
		olqty, err9 := queryOne(s, "SELECT SUM(ol_quantity) FROM order_line")
		errs := []error{err1, err2, err3, err4, err5, err6, err7, err8, err9}
		bad := false
		for _, err := range errs {
			if err != nil {
				violations = append(violations, fmt.Sprintf("shard %d: sums: %v", shard, err))
				bad = true
			}
		}
		if bad {
			continue
		}
		// Every transaction runs on one shard, so each shard balances on
		// its own: a Payment debits a customer and books the same amount
		// to a warehouse YTD of the same shard, and a NewOrder's lines
		// draw their stock from a warehouse of the same shard. A customer
		// debited with no YTD booked, or stock drawn with no order line,
		// shifts these by a whole amount or quantity.
		if w, cb := wytd.AsFloat(), cbal.AsFloat(); math.Abs(cb+w) > 1e-6*math.Max(1, math.Abs(w)) {
			violations = append(violations,
				fmt.Sprintf("shard %d: sum(c_balance)=%v != -sum(w_ytd)=%v (customer debited with no YTD booked)", shard, cb, -w))
		}
		if sy, ol := sytd.AsFloat(), olqty.AsFloat(); math.Abs(sy-ol) > 1e-6*math.Max(1, ol) {
			violations = append(violations,
				fmt.Sprintf("shard %d: sum(s_ytd)=%v != sum(ol_quantity)=%v (stock drawn with no order line)", shard, sy, ol))
		}
		sumWYTD += wytd.AsFloat()
		sumDYTD += dytd.AsFloat()
		totalOrders += orders.I
		totalNewOrders += newOrders.I
		totalNextSum += int64(nextSum.AsFloat())
		totalDistricts += districts.I
	}
	if totalWarehouses != int64(c.Warehouses) {
		violations = append(violations,
			fmt.Sprintf("shards own %d warehouses in total, schema has %d", totalWarehouses, c.Warehouses))
	}
	// Same relative epsilon as the per-warehouse audit: the totals
	// accumulate identical amounts in different orders.
	if diff := math.Abs(sumWYTD - sumDYTD); diff > 1e-6*math.Max(1, math.Abs(sumWYTD)) {
		violations = append(violations,
			fmt.Sprintf("global: sum(w_ytd)=%v != sum(d_ytd)=%v across %d shards", sumWYTD, sumDYTD, len(dbs)))
	}
	// Every district's d_next_o_id starts at 1, so global orders =
	// sum(d_next_o_id - 1) = sum(d_next_o_id) - #districts.
	if wantOrders := totalNextSum - totalDistricts; totalOrders != wantOrders || totalNewOrders != wantOrders {
		violations = append(violations,
			fmt.Sprintf("global: %d orders / %d new_order rows, counters say %d", totalOrders, totalNewOrders, wantOrders))
	}
	return violations
}
