package sqldb

import (
	"cmp"
	"fmt"
	"slices"
	"unicode/utf8"

	"pyxis/internal/val"
)

// This file executes bound plans (plan.go). Nothing here resolves a
// name: tables are pointers, columns are indexes, and the state of one
// execution lives in the Session's scratch.

// exec runs p under its latches, which the caller holds.
func (s *Session) exec(txn *Txn, p *boundPlan, args []val.Value) (int, *ResultSet, error) {
	for len(s.rows) < len(p.tables) {
		s.rows = append(s.rows, nil)
		s.slots = append(s.slots, nil)
	}
	// Scratch rows must not pin row versions (or leak into the next
	// statement's level-0 evaluation) once the statement is over.
	defer clear(s.rows[:len(p.tables)])
	switch p.kind {
	case kindSelect:
		rs, err := s.execSelect(txn, p, args)
		return 0, rs, err
	case kindInsert:
		n, err := s.execInsert(txn, p, args)
		return n, nil, err
	case kindUpdate:
		n, err := s.execUpdate(txn, p, args)
		return n, nil, err
	default:
		n, err := s.execDelete(txn, p, args)
		return n, nil, err
	}
}

// likeMatch implements SQL LIKE: '%' matches any run of characters,
// '_' exactly one, everything else itself. It allocates nothing: on a
// mismatch the last '%' seen absorbs one more character of s and
// matching resumes after it. Earlier '%'s never need retrying: whatever
// they could absorb, the last one can absorb instead.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, starS := -1, 0 // the last '%' in pat, and where in s its match ends
	for si < len(s) {
		if pi < len(pat) {
			switch c := pat[pi]; c {
			case '%':
				star, starS = pi, si
				pi++
				continue
			case '_':
				_, w := utf8.DecodeRuneInString(s[si:])
				si += w
				pi++
				continue
			default:
				if c == s[si] {
					si++
					pi++
					continue
				}
			}
		}
		if star < 0 {
			return false
		}
		_, w := utf8.DecodeRuneInString(s[starS:])
		starS += w
		si, pi = starS, star+1
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// sameVersion reports whether a and b are the same published row
// version (row slices are immutable once published, so one backing
// array is one version).
func sameVersion(a, b []val.Value) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// matchRows finds the slots of the level's table whose rows satisfy
// the level's conjuncts (earlier levels' rows are already in s.rows),
// locking each match at mode. A row is checked, locked, and checked
// again if it changed in between: under a shared latch another
// session may replace the row until this one holds its lock. Caller
// holds the table's latch in at least read mode; row pointers are read
// through the slot stripes. The returned slice is the level's scratch.
func (s *Session) matchRows(txn *Txn, p *boundPlan, args []val.Value, level int, mode LockMode) ([]int, error) {
	t, lp := p.tables[level], &p.levels[level]
	cands := s.slots[level][:0]
	if lp.tree != nil {
		var err error
		if cands, err = s.probe(lp, cands, args); err != nil {
			return nil, err
		}
	} else {
		for slot := range t.rows {
			if t.rowAt(slot) != nil {
				cands = append(cands, slot)
			}
		}
	}
	s.slots[level] = cands
	s.db.stats.rowsScanned.Add(int64(len(cands)))

	out := cands[:0] // filtered in place: out never overtakes the read index
	for _, slot := range cands {
		row, err := s.rowMatches(t, lp, level, slot, nil, args)
		if err != nil {
			return nil, err
		}
		if row == nil {
			continue
		}
		waited, err := s.acquireLock(txn, t.lockKey(slot), mode)
		if err != nil {
			return nil, err
		}
		if waited && s.db.epoch.Load() != p.epoch {
			// An index may have appeared while the latch was suspended.
			return nil, errPlanStale
		}
		if row, err = s.rowMatches(t, lp, level, slot, row, args); err != nil {
			return nil, err
		}
		if row != nil {
			out = append(out, slot)
		}
	}
	return out, nil
}

// probe appends to cands the slots the level's index path yields: a Get
// for a point, else the leaf walk over the equality prefix, narrowed by
// the range bounds when every probe value sortsIn its column (else the
// whole prefix, a superset the conjuncts filter). The bound keys are
// built after the prefix in s.key: [prefix, lo] and [prefix, hi].
func (s *Session) probe(lp *levelPlan, cands []int, args []val.Value) ([]int, error) {
	key := s.key[:0]
	for i := range lp.key {
		v, err := lp.key[i].eval(s.rows, args)
		if err != nil {
			return nil, err
		}
		key = append(key, v)
	}
	if lp.point {
		s.key = key
		if slot, ok := lp.tree.Get(key); ok {
			cands = append(cands, slot)
		}
		return cands, nil
	}
	n := len(key)
	lo, hi := key, key
	ranged := lp.lo != nil || lp.hi != nil
	for i := 0; ranged && i < n; i++ {
		ranged = sortsIn(key[i], lp.types[i])
	}
	if ranged && lp.lo != nil {
		v, err := lp.lo.eval(s.rows, args)
		if err != nil {
			return nil, err
		}
		if sortsIn(v, lp.types[n]) {
			key = append(key, v)
			lo = key[:n+1]
		}
	}
	if ranged && lp.hi != nil {
		v, err := lp.hi.eval(s.rows, args)
		if err != nil {
			return nil, err
		}
		if sortsIn(v, lp.types[n]) {
			key = append(append(key, key[:n]...), v)
			hi = key[len(key)-n-1:]
		}
	}
	s.key = key
	return lp.tree.AppendRange(cands, lo, hi), nil
}

// sortsIn reports whether v sorts among the values of a column of type
// ct exactly as the conjuncts compare it with them, so that a walk
// bounded by v misses no row a comparison with v can match: v is NULL,
// of the column's own kind, or an integer against a DOUBLE column. (A
// string compares with an INT column by neither order, and a DOUBLE
// beyond 2^53 equals several INT keys.)
func sortsIn(v val.Value, ct ColType) bool {
	switch v.K {
	case val.Null:
		return true
	case val.Int:
		return ct == CInt || ct == CDouble
	case val.Double:
		return ct == CDouble
	case val.Str:
		return ct == CString
	case val.Bool:
		return ct == CBool
	}
	return false
}

// rowMatches returns slot's row if it satisfies the level's conjuncts,
// nil if it does not (or the slot is a tombstone). A row that is still
// the version known to match is not evaluated again.
func (s *Session) rowMatches(t *Table, lp *levelPlan, level, slot int, known []val.Value, args []val.Value) ([]val.Value, error) {
	row := t.rowAt(slot)
	if row == nil || sameVersion(row, known) {
		return row, nil
	}
	s.rows[level] = row
	for i := range lp.conds {
		ok, err := lp.conds[i].holds(s.rows, args)
		if !ok || err != nil {
			return nil, err
		}
	}
	return row, nil
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE / DELETE
// ---------------------------------------------------------------------------

// execInsert runs under the table's exclusive latch (slot allocation
// and index insertion are structural).
func (s *Session) execInsert(txn *Txn, p *boundPlan, args []val.Value) (int, error) {
	s.db.stats.inserts.Add(1)
	t := p.tables[0]
	row := make([]val.Value, len(t.cols))
	for i := range p.vals {
		v, err := p.vals[i].eval(nil, args)
		if err != nil {
			return 0, err
		}
		ci := p.valCols[i]
		if row[ci], err = coerceCol(v, t.cols[ci].Type); err != nil {
			return 0, err
		}
	}

	s.key = appendKey(s.key[:0], t.pkCols, row, 0, true)
	if _, exists := t.pk.Get(s.key); exists {
		return 0, fmt.Errorf("%w: %s %v", ErrDupKey, t.name, s.key)
	}

	// Reserve a slot but do NOT publish the row until its X lock is
	// held: a recycled slot can carry lock waiters from its previous
	// row, and acquireLock suspends the table latch while parked, so an
	// early-published row would be visible (and lockable) by others
	// before this transaction owns it.
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, nil)
	}
	waited, err := s.acquireLock(txn, t.lockKey(slot), LockX)
	if err != nil {
		// No wait happened (errors are only returned pre-enqueue), so
		// the latch was held throughout and the slot can be recycled.
		t.free = append(t.free, slot)
		return 0, err
	}
	// The lock wait suspended the latch: another transaction may have
	// inserted the same key meanwhile. (A stale plan is harmless here:
	// an INSERT's plan names columns only, and addToIndexes walks the
	// table's live index set.)
	if waited {
		if _, exists := t.pk.Get(s.key); exists {
			// The reserved slot stays X-locked until transaction end;
			// commit and rollback both recycle it.
			txn.reserved = append(txn.reserved, freedSlot{t: t, slot: slot})
			return 0, fmt.Errorf("%w: %s %v", ErrDupKey, t.name, s.key)
		}
	}
	t.rows[slot] = row
	t.addToIndexes(row, slot)
	txn.undo = append(txn.undo, undoRec{t: t, kind: uInsert, slot: slot})
	return 1, nil
}

// execUpdate runs under the table's latch: exclusive when any set
// column is indexed (index maintenance is structural), shared otherwise
// (a non-key update only installs a fresh row pointer via its stripe).
// matchRows has already refused a plan gone stale during a lock wait,
// so that decision still stands when the first row is written.
func (s *Session) execUpdate(txn *Txn, p *boundPlan, args []val.Value) (int, error) {
	s.db.stats.updates.Add(1)
	t := p.tables[0]
	slots, err := s.matchRows(txn, p, args, 0, LockX)
	if err != nil {
		return 0, err
	}
	for _, slot := range slots {
		old := t.rowAt(slot)
		s.rows[0] = old
		newRow := slices.Clone(old)
		for i := range p.sets {
			set := &p.sets[i]
			v, err := set.expr.eval(s.rows, args)
			if err != nil {
				return 0, err
			}
			if newRow[set.col], err = coerceCol(v, set.typ); err != nil {
				return 0, err
			}
		}
		txn.undo = append(txn.undo, undoRec{t: t, kind: uUpdate, slot: slot, before: old})
		if p.latchX {
			t.dropFromIndexes(old, slot)
			t.rows[slot] = newRow
			t.addToIndexes(newRow, slot)
		} else {
			t.setRow(slot, newRow)
		}
	}
	return len(slots), nil
}

// execDelete runs under the table's exclusive latch (tombstoning drops
// index entries).
func (s *Session) execDelete(txn *Txn, p *boundPlan, args []val.Value) (int, error) {
	s.db.stats.deletes.Add(1)
	t := p.tables[0]
	slots, err := s.matchRows(txn, p, args, 0, LockX)
	if err != nil {
		return 0, err
	}
	for _, slot := range slots {
		old := t.rows[slot]
		t.dropFromIndexes(old, slot)
		txn.undo = append(txn.undo, undoRec{t: t, kind: uDelete, slot: slot, before: old})
		// Tombstone now; the slot is recycled only at commit so rollback
		// can restore in place.
		t.rows[slot] = nil
		txn.freed = append(txn.freed, freedSlot{t: t, slot: slot})
	}
	return len(slots), nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// execSelect runs under shared latches on every FROM table: a
// nested-loop join in join order (joinOrder) offering each result row to
// the kept set (keepRow), then the aggregate, or one sort of what was
// kept.
func (s *Session) execSelect(txn *Txn, p *boundPlan, args []val.Value) (*ResultSet, error) {
	s.db.stats.selects.Add(1)
	s.kept, s.keys, s.arrivals = s.kept[:0], s.keys[:0], 0
	// The kept rows go to the ResultSet: the scratch must not pin them.
	defer func() {
		clear(s.kept)
		clear(s.keys)
	}()
	if err := s.join(txn, p, args, 0); err != nil {
		return nil, err
	}
	if p.limit >= 0 || len(p.orderBy) > 0 {
		slices.SortFunc(s.kept, func(a, b keptRow) int { return s.cmpKept(p, &a, &b) })
	}
	var rows [][]val.Value
	if len(s.kept) > 0 {
		rows = make([][]val.Value, len(s.kept))
		for i := range s.kept {
			rows[i] = s.kept[i].row
		}
	}
	if p.aggs != nil {
		rows = [][]val.Value{computeAggregates(p.aggs, rows)}
	}
	return &ResultSet{Cols: p.cols, Rows: rows}, nil
}

// join extends the current partial join (s.rows[:level]) by every
// matching row of the level's table, S-locking matches, and offers each
// full row to the kept set. LIMIT never shortens the walk: every row
// that satisfies its level's conjuncts is locked.
func (s *Session) join(txn *Txn, p *boundPlan, args []val.Value, level int) error {
	if level == len(p.tables) {
		s.keepRow(p)
		return nil
	}
	slots, err := s.matchRows(txn, p, args, level, LockS)
	if err != nil {
		return err
	}
	t := p.tables[level]
	for _, slot := range slots {
		if s.rows[level] = t.rowAt(slot); s.rows[level] == nil {
			continue
		}
		if err := s.join(txn, p, args, level+1); err != nil {
			return err
		}
	}
	s.rows[level] = nil
	return nil
}

// keptRow is one row of a SELECT's kept set: the projected row, its
// arrival number, and the offset of its ORDER BY key in Session.keys.
type keptRow struct {
	row []val.Value
	seq int
	key int
}

// keepRow offers the join's current row to the kept set. Without LIMIT
// every row is kept. With LIMIT k the set is a heap of the k rows that
// sort first so far, the last on top, and a row enters only by sorting
// before it; a row is projected only when it enters (into the evicted
// row's slice). Ties sort by arrival, so the set ends up holding what a
// stable sort of every row would put first.
func (s *Session) keepRow(p *boundPlan) {
	seq, at := s.arrivals, len(s.keys)
	s.arrivals++
	for _, ok := range p.orderBy {
		s.keys = append(s.keys, s.colValue(ok.colAt))
	}
	if p.limit < 0 || len(s.kept) < p.limit {
		s.kept = append(s.kept, keptRow{row: s.project(p, nil), seq: seq, key: at})
		if p.limit >= 0 {
			s.siftUp(p, len(s.kept)-1)
		}
		return
	}
	if p.limit > 0 {
		top := &s.kept[0]
		if cmpOrder(p.orderBy, s.keys[at:], s.keys[top.key:]) < 0 {
			copy(s.keys[top.key:], s.keys[at:])
			top.seq, top.row = seq, s.project(p, top.row)
			s.siftDown(p, 0)
		}
	}
	s.keys = s.keys[:at]
}

// project writes the current row's output columns into dst (a new row
// when dst is nil).
func (s *Session) project(p *boundPlan, dst []val.Value) []val.Value {
	if dst == nil {
		dst = make([]val.Value, len(p.proj))
	}
	for i, at := range p.proj {
		dst[i] = s.colValue(at)
	}
	return dst
}

// cmpKept orders kept rows by ORDER BY key, then by arrival.
func (s *Session) cmpKept(p *boundPlan, a, b *keptRow) int {
	if c := cmpOrder(p.orderBy, s.keys[a.key:], s.keys[b.key:]); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// cmpOrder compares two ORDER BY keys.
func cmpOrder(order []orderCol, x, y []val.Value) int {
	for i, o := range order {
		c := val.Compare(x[i], y[i])
		if o.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// siftUp and siftDown restore the kept set's heap order (every row sorts
// after its children) around row i.
func (s *Session) siftUp(p *boundPlan, i int) {
	h := s.kept
	for i > 0 {
		parent := (i - 1) / 2
		if s.cmpKept(p, &h[i], &h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *Session) siftDown(p *boundPlan, i int) {
	h := s.kept
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && s.cmpKept(p, &h[c], &h[last]) > 0 {
				last = c
			}
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

func (s *Session) colValue(at colAt) val.Value {
	if at.level < 0 {
		return val.IntV(1) // COUNT(*) counts rows; the value is unused
	}
	return s.rows[at.level][at.col]
}

// computeAggregates folds the projected rows into one row: column i is
// aggs[i] over the i-th projected value.
func computeAggregates(aggs []string, rows [][]val.Value) []val.Value {
	out := make([]val.Value, len(aggs))
	for i, agg := range aggs {
		switch agg {
		case "COUNT":
			out[i] = val.IntV(int64(len(rows)))
		case "SUM", "AVG":
			// Integers add exactly; the float sum is the answer as soon
			// as one value is a double (and for AVG).
			var isum int64
			fsum, isInt := 0.0, true
			for _, r := range rows {
				switch r[i].K {
				case val.Int:
					isum += r[i].I
				case val.Double:
					isInt = false
				}
				fsum += r[i].AsFloat()
			}
			switch {
			case agg == "AVG" && len(rows) == 0:
				out[i] = val.NullV()
			case agg == "AVG":
				out[i] = val.DoubleV(fsum / float64(len(rows)))
			case isInt:
				out[i] = val.IntV(isum)
			default:
				out[i] = val.DoubleV(fsum)
			}
		default: // MIN, MAX
			if len(rows) == 0 {
				out[i] = val.NullV()
				continue
			}
			best := rows[0][i]
			for _, r := range rows[1:] {
				c := val.Compare(r[i], best)
				if (agg == "MIN" && c < 0) || (agg == "MAX" && c > 0) {
					best = r[i]
				}
			}
			out[i] = best
		}
	}
	return out
}
