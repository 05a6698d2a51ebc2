package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pyxis/internal/val"
)

// Range-fence errors. Both are retryable from the client's point of
// view: ErrRangeFenced means "back off, a migration is draining this
// range"; ErrRangeMoved means "re-read the shard map, the range lives
// elsewhere now".
var (
	ErrRangeFenced = errors.New("sqldb: key range is fenced for migration")
	ErrRangeMoved  = errors.New("sqldb: key range has moved to another shard")
	ErrFenceBusy   = errors.New("sqldb: a migration fence is already armed")
	ErrFenceToken  = errors.New("sqldb: fence token does not match the armed fence")
)

// FenceSpec names one contiguous partition-key range across a set of
// tables: Tables maps each (case-insensitive) table name to the column
// carrying the partition key, and [Lo, Hi] is the inclusive key range.
// Tables absent from the map (replicated catalogs like TPC-C's item)
// are never fenced.
type FenceSpec struct {
	Tables map[string]string
	Lo, Hi int64
}

func (sp FenceSpec) contains(key int64) bool { return key >= sp.Lo && key <= sp.Hi }

// fenceState is one armed migration fence. Immutable once published;
// ArmFence/ReleaseFence swap the whole pointer.
type fenceState struct {
	spec     FenceSpec
	token    uint64
	deadline time.Time // lazily expires the fence if the migrator dies
}

// fenceControl is the DB's migration-fence plane. It lives in its own
// struct (not loose fields on DB) because it is control-plane state
// with its own discipline: statements read the two atomic pointers and
// never take fenceMu; only ArmFence/ReleaseFence serialize on it.
//
// armed is the single in-flight migration fence (at most one per DB —
// the migrator itself serializes moves), and moved accumulates the
// ranges whose rows were cut over to another shard: a tombstone that
// turns stale keyed access into ErrRangeMoved instead of a silent
// empty read.
type fenceControl struct {
	fenceMu sync.Mutex
	armed   atomic.Pointer[fenceState]
	moved   atomic.Pointer[[]FenceSpec]
	nextTok atomic.Uint64
}

// ArmFence installs a migration fence over spec for at most ttl and
// returns its token. While armed, every statement whose partition key
// falls in the range — reads included — fails with ErrRangeFenced
// unless its session adopted the token (AdoptFence). Reads are fenced
// too on purpose: a reader admitted mid-migration could park on a row
// lock held by the drain, wake after cutover and observe a half-moved
// warehouse as an empty result. Writes with an undeterminable key on a
// fenced table are fenced conservatively.
//
// The ttl is the crash-safety valve: if the migrator dies between
// fence and cutover, the next statement past the deadline releases the
// fence lazily and the range serves again. latch: fenceMu exclusive;
// the statement path reads only the atomic pointers.
func (db *DB) ArmFence(spec FenceSpec, ttl time.Duration) (uint64, error) {
	if spec.Lo > spec.Hi || len(spec.Tables) == 0 {
		return 0, fmt.Errorf("sqldb: invalid fence spec [%d,%d] over %d tables", spec.Lo, spec.Hi, len(spec.Tables))
	}
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	norm := FenceSpec{Tables: make(map[string]string, len(spec.Tables)), Lo: spec.Lo, Hi: spec.Hi}
	for t, c := range spec.Tables {
		norm.Tables[normName(t)] = normName(c)
	}
	db.fence.fenceMu.Lock()
	defer db.fence.fenceMu.Unlock()
	if st := db.fence.armed.Load(); st != nil && time.Now().Before(st.deadline) {
		return 0, fmt.Errorf("%w: token %d holds [%d,%d]", ErrFenceBusy, st.token, st.spec.Lo, st.spec.Hi)
	}
	tok := db.fence.nextTok.Add(1)
	db.fence.armed.Store(&fenceState{spec: norm, token: tok, deadline: time.Now().Add(ttl)})
	return tok, nil
}

// ReleaseFence drops the armed fence identified by token. With
// moved=true the fence's range becomes a permanent tombstone: keyed
// statements on it fail with ErrRangeMoved from then on, telling a
// stale router to re-read the shard map. With moved=false (migration
// aborted) the range simply serves again. latch: fenceMu exclusive.
func (db *DB) ReleaseFence(token uint64, moved bool) error {
	db.fence.fenceMu.Lock()
	defer db.fence.fenceMu.Unlock()
	st := db.fence.armed.Load()
	if st == nil || st.token != token {
		return fmt.Errorf("%w: have %v, got %d", ErrFenceToken, fenceTokenOf(st), token)
	}
	if moved {
		var next []FenceSpec
		if prev := db.fence.moved.Load(); prev != nil {
			next = append(next, *prev...)
		}
		next = append(next, st.spec)
		db.fence.moved.Store(&next)
	}
	db.fence.armed.Store(nil)
	return nil
}

func fenceTokenOf(st *fenceState) any {
	if st == nil {
		return "no fence"
	}
	return st.token
}

// FenceArmed reports whether a live (non-expired) fence is up, and the
// number of moved-out tombstone ranges. Test/ops introspection only.
func (db *DB) FenceArmed() (armed bool, movedRanges int) {
	if st := db.fence.armed.Load(); st != nil && time.Now().Before(st.deadline) {
		armed = true
	}
	if mv := db.fence.moved.Load(); mv != nil {
		movedRanges = len(*mv)
	}
	return armed, movedRanges
}

// AdoptFence exempts this session from the armed fence with the given
// token — the migrator adopts its own fence so the drain's SELECTs and
// DELETEs pass. Adoption does not bypass moved tombstones.
func (s *Session) AdoptFence(token uint64) { s.fenceTok = token }

// fenceGate is the per-statement fence check, called before any latch
// is taken. The no-migration hot path is two atomic nil loads.
func (s *Session) fenceGate(st SQLStmt, args []val.Value) error {
	fc := &s.db.fence
	armed := fc.armed.Load()
	movedP := fc.moved.Load()
	if armed == nil && movedP == nil {
		return nil
	}
	if armed != nil && !time.Now().Before(armed.deadline) {
		// The migrator died without releasing; expire lazily so the
		// range serves again without a background sweeper.
		fc.fenceMu.Lock()
		if cur := fc.armed.Load(); cur == armed {
			fc.armed.Store(nil)
		}
		fc.fenceMu.Unlock()
		armed = nil
	}
	if movedP != nil {
		for i := range *movedP {
			if err := s.db.fenceMatch(&(*movedP)[i], st, args, false); err != nil {
				return fmt.Errorf("%w: keys [%d,%d]", ErrRangeMoved, (*movedP)[i].Lo, (*movedP)[i].Hi)
			}
		}
	}
	if armed != nil && s.fenceTok != armed.token {
		if err := s.db.fenceMatch(&armed.spec, st, args, true); err != nil {
			return fmt.Errorf("%w: keys [%d,%d]", ErrRangeFenced, armed.spec.Lo, armed.spec.Hi)
		}
	}
	return nil
}

// errFenceHit is an internal marker: the statement targets the spec's
// range. Wrapped into the public sentinel by fenceGate.
var errFenceHit = errors.New("fence hit")

// fenceMatch reports (as errFenceHit) whether st targets spec's key
// range. conservativeWrites additionally fences writes whose key the
// gate cannot determine — during the armed window a keyless UPDATE or
// DELETE on a fenced table could mutate in-range rows mid-stream, so
// it is refused; keyless reads (whole-table audits) pass and simply
// see whatever committed state the latches give them.
func (db *DB) fenceMatch(spec *FenceSpec, st SQLStmt, args []val.Value, conservativeWrites bool) error {
	hit := func(table string, keyed, inRange, write bool) error {
		if _, fenced := spec.Tables[table]; !fenced {
			return nil
		}
		if keyed && inRange {
			return errFenceHit
		}
		if !keyed && write && conservativeWrites {
			return errFenceHit
		}
		return nil
	}
	switch t := st.(type) {
	case *InsertStmt:
		keyCol, fenced := spec.Tables[t.Table]
		if !fenced {
			return nil
		}
		key, keyed := db.insertKey(t, keyCol, args)
		return hit(t.Table, keyed, keyed && spec.contains(key), true)
	case *UpdateStmt:
		key, keyed := whereKey(t.Where, spec.Tables[t.Table], args)
		return hit(t.Table, keyed, keyed && spec.contains(key), true)
	case *DeleteStmt:
		key, keyed := whereKey(t.Where, spec.Tables[t.Table], args)
		return hit(t.Table, keyed, keyed && spec.contains(key), true)
	case *SelectStmt:
		for _, tr := range t.Tables {
			key, keyed := whereKey(t.Where, spec.Tables[tr.Table], args)
			if err := hit(tr.Table, keyed, keyed && spec.contains(key), false); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertKey extracts the partition key of an INSERT: by named column
// when a column list is present, by the key column's declared position
// in the catalog otherwise.
func (db *DB) insertKey(t *InsertStmt, keyCol string, args []val.Value) (int64, bool) {
	idx := -1
	if len(t.Cols) > 0 {
		idx = slices.Index(t.Cols, keyCol)
	} else if tbl := db.lookupTable(t.Table); tbl != nil {
		if i, ok := tbl.colIdx[keyCol]; ok {
			idx = i
		}
	}
	if idx < 0 || idx >= len(t.Vals) {
		return 0, false
	}
	return fenceEvalKey(t.Vals[idx], args)
}

// whereKey scans a WHERE clause for `keyCol = <lit|param>` and returns
// the key when found.
func whereKey(conds []Cond, keyCol string, args []val.Value) (int64, bool) {
	if keyCol == "" {
		return 0, false
	}
	for i := range conds {
		c := &conds[i]
		if c.Op != CmpEq {
			continue
		}
		if cr, ok := c.L.(ColRef); ok && cr.Col == keyCol {
			if k, ok := fenceEvalKey(c.R, args); ok {
				return k, true
			}
		}
		if cr, ok := c.R.(ColRef); ok && cr.Col == keyCol {
			if k, ok := fenceEvalKey(c.L, args); ok {
				return k, true
			}
		}
	}
	return 0, false
}

// fenceEvalKey evaluates the simple expressions a partition key can
// be: an integer literal or a bound parameter.
func fenceEvalKey(e SQLExpr, args []val.Value) (int64, bool) {
	switch v := e.(type) {
	case LitExpr:
		if v.V.K == val.Int {
			return v.V.I, true
		}
	case ParamExpr:
		if v.Index >= 0 && v.Index < len(args) && args[v.Index].K == val.Int {
			return args[v.Index].I, true
		}
	}
	return 0, false
}
