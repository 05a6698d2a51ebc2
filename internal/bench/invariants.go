package bench

import (
	"fmt"
	"math"

	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// This file holds the consistency audits the concurrency tests (and
// benchmark/'s set-up gates) end in: what must hold in the database
// whatever interleaving or placement produced it. Each returns every
// violation found (nil means consistent).

// CheckLedger audits the ledger workload's lost-update invariant: each
// deposit added exactly 1.0 somewhere, so the account balances must sum
// to the number of deposits. A lost update on a contended account shows
// up as a lower total.
func CheckLedger(db *sqldb.DB, deposits int) []string {
	rs, err := db.NewSession().Query("SELECT balance FROM accounts")
	if err != nil {
		return []string{err.Error()}
	}
	total := 0.0
	for _, row := range rs.Rows {
		total += row[0].F
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
	var violations []string
	s := db.NewSession()
	for w := int64(1); w <= int64(c.Warehouses); w++ {
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

// CheckTPCCBalances audits db with CheckTPCCInvariants and then checks
// that its money and its stock balance: a Payment debits a customer and
// books the same amount to a warehouse YTD, and a NewOrder's lines draw
// their stock from a warehouse, remote ones included. A customer debited
// with no YTD booked, or stock drawn with no order line, shifts these by
// a whole amount or quantity. It returns every violation found (nil
// means consistent).
func CheckTPCCBalances(db *sqldb.DB, c TPCCConfig) []string {
	violations := CheckTPCCInvariants(db, c)
	s := db.NewSession()
	sum := func(sql string) float64 {
		rs, err := s.Query(sql)
		if err == nil && (len(rs.Rows) != 1 || len(rs.Rows[0]) != 1) {
			err = fmt.Errorf("want one value, got %d rows", len(rs.Rows))
		}
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: %v", sql, err))
			return math.NaN()
		}
		return rs.Rows[0][0].AsFloat()
	}
	wytd, cbal := sum("SELECT SUM(w_ytd) FROM warehouse"), sum("SELECT SUM(c_balance) FROM customer")
	sytd, olqty := sum("SELECT SUM(s_ytd) FROM stock"), sum("SELECT SUM(ol_quantity) FROM order_line")
	// A failed sum reads NaN, which fails no comparison below. The
	// same relative epsilon as the per-warehouse audit: the totals
	// accumulate identical amounts in different orders.
	if math.Abs(cbal+wytd) > 1e-6*math.Max(1, math.Abs(wytd)) {
		violations = append(violations,
			fmt.Sprintf("sum(c_balance)=%v != -sum(w_ytd)=%v (customer debited with no YTD booked)", cbal, -wytd))
	}
	if math.Abs(sytd-olqty) > 1e-6*math.Max(1, olqty) {
		violations = append(violations,
			fmt.Sprintf("sum(s_ytd)=%v != sum(ol_quantity)=%v (stock drawn with no order line)", sytd, olqty))
	}
	return violations
}
