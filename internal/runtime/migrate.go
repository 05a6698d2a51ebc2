package runtime

// Migrator is the data-plane half of live rebalancing: it moves one
// contiguous warehouse range from shard to shard over the existing
// dbapi wire, with no transaction ever observing half a warehouse.
//
// The protocol, per move:
//
//	FENCE    arm a range fence on the source (dbapi Client.Fence) — new
//	         statements on the moving keys fail fast with the
//	         retryable ErrRangeFenced; in-flight writers finish and
//	         their row locks drain against the snapshot below.
//	ADOPT    exempt the migrator's own source session from the fence
//	         (an ordinary call on that session, so it is ordered after
//	         the Begin that opened the drain transaction).
//	STREAM   inside one source transaction, SELECT every row of every
//	         partitioned table for each moving warehouse (the S locks
//	         serialize behind any still-running writer) and INSERT it
//	         inside one destination transaction.
//	DRAIN    DELETE the moved rows on the source, same transaction.
//	CUTOVER  commit both transactions atomically through the existing
//	         2PC coordinator (a prepare on both, then the decision).
//	RELEASE  drop the fence with moved=true: the range becomes a
//	         tombstone on the source (ErrRangeMoved redirects stale
//	         routers) and the successor map publishes with the epoch
//	         bumped.
//
// Any failure before the 2PC decision rolls both transactions back and
// releases the fence with moved=false — the range simply serves from
// the source again. If the migrator itself dies mid-move, the fence's
// TTL releases it lazily on the source (see sqldb.ArmFence).

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// ErrWrongShard is the routing redirect: the addressed shard no longer
// owns the key because a migration completed and the map epoch moved
// on. Drivers re-read the current map and retry on the new home shard.
var ErrWrongShard = errors.New("runtime: key re-homed by a newer shard map")

// Migrator moves warehouse ranges between shards. One Migrator per
// deployment; moves are serialized internally (migMu), so concurrent
// advisor triggers queue rather than interleave half-fenced ranges.
type Migrator struct {
	// Client is the router whose map the move validates against and
	// whose successor map it publishes; its TwoPC coordinator drives
	// the cutover.
	Client *ShardedClient
	// Pool is the DB-tier wire: one mux connection set per shard.
	Pool *rpc.ShardedPool
	// Tables maps each partitioned table to its partition-key column
	// (the replicated tables are simply absent).
	Tables map[string]string
	// FenceTTL bounds how long the source range stays fenced if this
	// process dies mid-move (default 5s).
	FenceTTL time.Duration

	// migMu serializes moves. Held for a whole move; acquired before
	// any fence goes up, so at most one range is fenced at a time.
	migMu sync.Mutex
}

// MoveResult describes one completed migration.
type MoveResult struct {
	From, To   int
	Lo, Hi     int64
	Rows       int           // rows streamed (and deleted on the source)
	Elapsed    time.Duration // fence-to-publish wall time
	FinalEpoch uint64
}

func (r *MoveResult) String() string {
	return fmt.Sprintf("moved w[%d,%d] shard%d->shard%d: %d rows in %v (epoch %d)",
		r.Lo, r.Hi, r.From, r.To, r.Rows, r.Elapsed.Round(time.Millisecond), r.FinalEpoch)
}

// Move transfers warehouses [lo, hi] from shard `from` to shard `to`
// and publishes the successor map. It validates current ownership
// first, so a stale plan against an already-moved range fails with
// ErrWrongShard instead of fencing someone else's data.
func (mg *Migrator) Move(from, to int, lo, hi int64) (*MoveResult, error) {
	mg.migMu.Lock()
	defer mg.migMu.Unlock()
	start := time.Now()

	cur := mg.Client.CurrentMap()
	n := cur.NumShards()
	if from == to || from < 0 || from >= n || to < 0 || to >= n {
		return nil, fmt.Errorf("runtime: bad move shard%d->shard%d of %d shards", from, to, n)
	}
	if lo > hi {
		return nil, fmt.Errorf("runtime: bad move range [%d,%d]", lo, hi)
	}
	for w := lo; w <= hi; w++ {
		if home := cur.Shard(w); home != from {
			return nil, fmt.Errorf("%w: warehouse %d is on shard %d, not %d", ErrWrongShard, w, home, from)
		}
	}

	srcSess, err := mg.Pool.Session(from)
	if err != nil {
		return nil, fmt.Errorf("runtime: migrate source session: %w", err)
	}
	src := dbapi.NewClient(srcSess)
	defer src.Close()
	dstSess, err := mg.Pool.Session(to)
	if err != nil {
		return nil, fmt.Errorf("runtime: migrate dest session: %w", err)
	}
	dst := dbapi.NewClient(dstSess)
	defer dst.Close()

	ttl := mg.FenceTTL
	if ttl <= 0 {
		ttl = 5 * time.Second
	}

	// Open the drain transaction BEFORE arming the fence: the server
	// session must exist for ADOPT to land on it, and the order
	// Begin -> FENCE -> ADOPT keeps the fence window as narrow as the
	// drain itself.
	if err := src.Begin(); err != nil {
		return nil, fmt.Errorf("runtime: migrate source begin: %w", err)
	}
	token, err := src.Fence(sqldb.FenceSpec{Tables: mg.Tables, Lo: lo, Hi: hi}, ttl, 0)
	if err != nil {
		rollbackBoth(src, nil)
		return nil, fmt.Errorf("runtime: migrate fence: %w", err)
	}
	release := func(moved bool) {
		// Best effort: if the release itself fails (dead source), the
		// fence TTL converges the source to unfenced on its own.
		_ = src.ReleaseFence(token, moved, 0)
	}
	abort := func(stage string, cause error) (*MoveResult, error) {
		rollbackBoth(src, dst)
		release(false)
		return nil, fmt.Errorf("runtime: migrate %s: %w", stage, cause)
	}
	if err := src.AdoptFence(token, 0); err != nil {
		return abort("adopt", err)
	}
	if err := dst.Begin(); err != nil {
		return abort("dest begin", err)
	}

	rows, err := mg.stream(src, dst, lo, hi)
	if err != nil {
		return abort("stream", err)
	}

	// Cutover: both sides prepare, then the decision commits them
	// atomically. The source transaction holds X locks on every moved
	// row (the deletes), so no reader can slip between delete-commit
	// and tombstone: the fence is still up for new statements and the
	// locks hold everyone else until after RELEASE below.
	gid := mg.Client.TwoPC.NewGID()
	if err := mg.Client.TwoPC.Commit(gid, src, dst); err != nil {
		// Commit returned non-nil => decision was abort (prepare veto
		// or participant death); both sides converge to rollback.
		release(false)
		return nil, fmt.Errorf("runtime: migrate cutover: %w", err)
	}
	release(true)

	next := cur.WithMove(lo, hi, to)
	if err := mg.Client.Publish(next); err != nil {
		// Committed but unpublished: the tombstone still redirects
		// traffic, so surface the inconsistency loudly.
		return nil, fmt.Errorf("runtime: migrate publish after commit: %w", err)
	}
	return &MoveResult{From: from, To: to, Lo: lo, Hi: hi, Rows: rows,
		Elapsed: time.Since(start), FinalEpoch: next.Epoch}, nil
}

// stream copies every partitioned row of warehouses [lo, hi] from the
// source drain transaction into the destination transaction, returning
// the row count. Table order is sorted for determinism.
func (mg *Migrator) stream(src, dst *dbapi.Client, lo, hi int64) (int, error) {
	tables := make([]string, 0, len(mg.Tables))
	for t := range mg.Tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	rows := 0
	for _, table := range tables {
		keyCol := mg.Tables[table]
		for w := lo; w <= hi; w++ {
			rs, err := src.Query(fmt.Sprintf("SELECT * FROM %s WHERE %s = ?", table, keyCol), val.IntV(w))
			if err != nil {
				return 0, fmt.Errorf("snapshot %s w=%d: %w", table, w, err)
			}
			if len(rs.Rows) == 0 {
				continue
			}
			insert := insertSQL(table, len(rs.Rows[0]))
			for _, row := range rs.Rows {
				if _, err := dst.Exec(insert, row...); err != nil {
					return 0, fmt.Errorf("install %s w=%d: %w", table, w, err)
				}
			}
			if _, err := src.Exec(fmt.Sprintf("DELETE FROM %s WHERE %s = ?", table, keyCol), val.IntV(w)); err != nil {
				return 0, fmt.Errorf("drain %s w=%d: %w", table, w, err)
			}
			rows += len(rs.Rows)
		}
	}
	return rows, nil
}

func insertSQL(table string, ncols int) string {
	marks := make([]byte, 0, 2*ncols)
	for i := 0; i < ncols; i++ {
		if i > 0 {
			marks = append(marks, ',')
		}
		marks = append(marks, '?')
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", table, marks)
}

func rollbackBoth(src, dst *dbapi.Client) {
	if src != nil {
		_ = src.Rollback()
	}
	if dst != nil {
		_ = dst.Rollback()
	}
}
