package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
	"pyxis/internal/faultconn"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

func rebalanceTPCC() TPCCConfig {
	return TPCCConfig{Warehouses: 8, DistrictsPerW: 2, CustomersPerD: 5,
		Items: 30, MinLines: 1, MaxLines: 3, RollbackPct: 10}
}

const (
	// zipfS is the warehouse-pick skew exponent of the rebalancing mix:
	// rank 1 (warehouse 1, shard 0) is the hotspot.
	zipfS = 1.4
	// rebalancePaymentEvery makes every k-th transaction of the
	// rebalancing mix a Payment; the rest are NewOrders.
	rebalancePaymentEvery = 2
)

// TPCCWarehouseKeys maps every warehouse-partitioned TPC-C table to
// its partition-key column: the table set a migration fences and
// streams. The item catalog is replicated per shard and deliberately
// absent.
func TPCCWarehouseKeys() map[string]string {
	return map[string]string{
		"warehouse":  "w_id",
		"district":   "d_w_id",
		"customer":   "c_w_id",
		"orders":     "o_w_id",
		"new_order":  "no_w_id",
		"order_line": "ol_w_id",
		"stock":      "s_w_id",
	}
}

// Rebalancing says what the controller beside the clients does at the
// halfway point of a runRebalance run.
type Rebalancing int

const (
	// Frozen leaves the shard map alone: the baseline under the same
	// skew.
	Frozen Rebalancing = iota
	// Advised asks the advisor for a plan and migrates what it chose.
	Advised
	// Forced skips the advisor and moves the upper half of shard 0's
	// base range to shard 1 regardless of load: the deterministic
	// single migration a differential test diffs against a Frozen run.
	Forced
)

// nativeSession is one client issuing hand-written transactions over
// database sessions it routes itself.
type nativeSession struct {
	d    *deploy.Tier
	wids []int64 // the Zipf-skewed home warehouse of each transaction
	// conns are cached per-shard sessions, dropped whole when the map
	// moves on: a session opened under a stale map may be homed wrong.
	conns map[int]*dbapi.Client
	epoch uint64
	// victims counts the deadlock aborts of the transaction in flight.
	victims int
}

func (s *nativeSession) rehome() {
	for sh, cl := range s.conns {
		cl.Close()
		delete(s.conns, sh)
	}
	s.epoch = s.d.Router.MapEpoch()
}

func (s *nativeSession) Close() error {
	s.rehome()
	return nil
}

// herdBackoff pauses a deadlock victim before its error goes to retry,
// which runs victims again at once. The Zipf hotspot concentrates half
// the tier's traffic on one warehouse, so victims that retry instantly
// re-collide as a herd; uniform mixes never see this livelock, which is
// why the jitter lives in this step and not in retry.
func (s *nativeSession) herdBackoff(err error) error {
	if class, _ := retry(err, 0); class == classDeadlock {
		s.victims++
		time.Sleep(time.Duration(rand.Intn(100)+min(s.victims, 10)*50) * time.Microsecond)
	}
	return err
}

// on returns the session's connection to warehouse wid's home shard
// under the map the session last saw.
func (s *nativeSession) on(wid int64) (*dbapi.Client, error) {
	// Re-home at the transaction boundary: an epoch bump means the map
	// changed under us.
	if e := s.d.Router.MapEpoch(); e != s.epoch {
		return nil, fmt.Errorf("%w: epoch %d -> %d", runtime.ErrWrongShard, s.epoch, e)
	}
	shard := s.d.Router.HomeShard(wid)
	if cl := s.conns[shard]; cl != nil {
		return cl, nil
	}
	sess, err := s.d.DB.Session(shard)
	if err != nil {
		return nil, err
	}
	s.conns[shard] = dbapi.NewClient(sess)
	return s.conns[shard], nil
}

// rebalanceRun is what one runRebalance run did: the clients' count,
// the moves, the map it ended under and the shard databases.
type rebalanceRun struct {
	sum        count
	dbs        []*sqldb.DB
	final      runtime.ShardMap
	migrations int
	moved      []int64 // every warehouse that changed shards
	// imbalanceBefore is the advisor's hottest/median ratio at the
	// trigger, imbalanceAfter the same ratio over the window that
	// followed under the final map.
	imbalanceBefore, imbalanceAfter float64
	// postTput is txn/s from the end of the migration (the halfway
	// point, when the map stays frozen) to the finish.
	postTput float64
}

// runRebalance runs live rebalancing end to end: a Zipf-skewed TPC-C
// mix makes shard 0 hot while a controller beside the clients waits
// for the halfway point. Advised, it reads the runtime.Advisor
// (imbalance over its trigger), min-cuts the co-access graph into a
// migration plan, and runtime.Migrator moves the chosen warehouse
// ranges shard to shard over the live database wire (fence, stream,
// drain, 2PC cutover, epoch-bumped map publish) while the clients keep
// running and meet the retry classes a live migration exposes (fenced,
// moved). Frozen, the same workload runs without the migration.
func runRebalance(t *testing.T, c TPCCConfig, cfg WallCfg, mode Rebalancing) *rebalanceRun {
	t.Helper()
	top, err := cfg.topology(c.Warehouses, nil, nil, c.loadRange)
	d := up(t, top, err)
	defer d.Close()
	adv := runtime.NewAdvisor(c.Warehouses)
	mig := &runtime.Migrator{Client: d.Router, Pool: d.DB, Tables: TPCCWarehouseKeys(), FenceTTL: fenceTTL}
	r := &rebalanceRun{dbs: d.DBs}

	// The controller: woken when half the workload has committed, it
	// reads the advisor, migrates, resets the observation window and
	// marks the start of the post-migration window.
	var (
		done          atomic.Int64
		halfway       = make(chan struct{})
		halfOnce      sync.Once
		postStart     time.Time
		postStartTxns int64
		ctlErr        error
		ctlDone       = make(chan struct{})
	)
	go func() {
		defer close(ctlDone)
		<-halfway
		if mode != Frozen {
			r.imbalanceBefore, _ = adv.Imbalance(d.Router.CurrentMap())
			ctlErr = r.migrate(mode, adv, mig)
			// Measure the next window against the new placement only.
			adv.Reset()
		}
		postStart, postStartTxns = time.Now(), done.Load()
	}()

	mix := TPCCMix{PaymentEvery: rebalancePaymentEvery}
	out, err := drive(cfg.Clients, cfg.Txns,
		func(i int) (*nativeSession, error) {
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(i)*7919+17)), zipfS, 1, uint64(c.Warehouses-1))
			s := &nativeSession{d: d, wids: make([]int64, cfg.Txns), conns: map[int]*dbapi.Client{}, epoch: d.Router.MapEpoch()}
			for k := range s.wids {
				s.wids[k] = int64(zipf.Uint64()) + 1
			}
			return s, nil
		},
		func(s *nativeSession, i, k int) (txnOut, error) {
			wid, tx := s.wids[k], c.parallelTxn(mix, i, k, 1, int64(c.Warehouses))
			conn, err := s.on(wid)
			if err != nil {
				return txnOut{}, err
			}
			if tx.kind == kindPayment {
				_, err = c.paymentNative(conn, wid, tx.did, tx.cid, tx.amount)
			} else {
				_, err = c.newOrderNative(conn, wid, tx.did, tx.cid, tx.olcnt, tx.seed, tx.rollback)
			}
			if err != nil {
				return txnOut{}, s.herdBackoff(err)
			}
			s.victims = 0
			adv.Observe(wid)
			if done.Add(1) >= int64(cfg.Clients*cfg.Txns/2) {
				halfOnce.Do(func() { close(halfway) })
			}
			return txnOut{kind: tx.kind}, nil
		})
	// A failed run may never cross the halfway mark; unblock the
	// controller either way.
	halfOnce.Do(func() { close(halfway) })
	<-ctlDone
	if err = errors.Join(err, ctlErr); err != nil {
		t.Fatal(err)
	}
	r.sum = out.total()
	r.postTput = float64(done.Load()-postStartTxns) / time.Since(postStart).Seconds()
	r.final = d.Router.CurrentMap()
	r.imbalanceAfter = runtime.ImbalanceRatio(adv.ShardLoads(r.final))
	return r
}

// migrate moves what mode says to move and books it in r.
func (r *rebalanceRun) migrate(mode Rebalancing, adv *runtime.Advisor, mig *runtime.Migrator) error {
	cur := mig.Client.CurrentMap()
	from, to := 0, 1
	var runs [][2]int64
	if mode == Forced {
		lo, hi := cur.WarehouseRange(0)
		runs = [][2]int64{{(lo + hi + 1) / 2, hi}}
	} else {
		plan, err := adv.Plan(cur)
		if err != nil {
			return err
		}
		if plan != nil {
			runs, from, to = plan.Runs(), plan.From, plan.To
		}
	}
	for _, run := range runs {
		// The drain transaction can lose a deadlock to an in-flight
		// writer; that aborts the move cleanly (fence released, both
		// sides rolled back), so it goes through retry like any victim.
		for attempt := 0; ; attempt++ {
			_, err := mig.Move(from, to, run[0], run[1])
			if err == nil {
				break
			}
			if class, _ := retry(err, attempt); class != classDeadlock || attempt >= 4 {
				return fmt.Errorf("migrate w[%d,%d]: %w", run[0], run[1], err)
			}
		}
		r.migrations++
		for w := run[0]; w <= run[1]; w++ {
			r.moved = append(r.moved, w)
		}
	}
	return nil
}

// TestRebalanceLiveMigration is the end-to-end story: Zipf skew makes
// shard 0 hot, the advisor plans mid-run, the migrator moves the
// chosen warehouses over the live wire, the move flattens the skew and
// the cross-shard invariants hold under the final (override-carrying)
// map. It runs at the scale where post-migration imbalance (hottest
// over median shard) stays under 1.5: 8 warehouses of DefaultTPCC,
// 8 clients of 144 transactions each, 2 shards.
func TestRebalanceLiveMigration(t *testing.T) {
	c := DefaultTPCC()
	c.Warehouses = 8
	r := runRebalance(t, c, WallCfg{Clients: 8, Txns: 144, Shards: 2}, Advised)
	t.Logf("moved %v in %d migrations: imbalance %.2f -> %.2f", r.moved, r.migrations, r.imbalanceBefore, r.imbalanceAfter)
	if r.migrations < 1 {
		t.Fatal("skewed live run performed no migration")
	}
	if r.final.Epoch == 0 {
		t.Fatal("migration did not bump the map epoch")
	}
	for _, w := range r.moved {
		if r.final.Shard(w) == 0 {
			t.Fatalf("moved warehouse %d still maps to shard 0", w)
		}
	}
	if r.imbalanceAfter >= r.imbalanceBefore {
		t.Fatalf("migration did not improve balance: %.2f -> %.2f", r.imbalanceBefore, r.imbalanceAfter)
	}
	if r.imbalanceAfter > 1.5 {
		t.Errorf("imbalance %.2f after the move (was %.2f), want <= 1.5", r.imbalanceAfter, r.imbalanceBefore)
	}
	if v := CheckShardInvariants(r.dbs, c, r.final); len(v) > 0 {
		t.Fatalf("post-migration invariants violated: %v", v)
	}
}

// TestRebalanceFrozenBaseline pins the control arm: same skew, advisor
// off, so nothing moves and the epoch stays 0.
func TestRebalanceFrozenBaseline(t *testing.T) {
	c := rebalanceTPCC()
	r := runRebalance(t, c, WallCfg{Clients: 4, Txns: 30, Shards: 2}, Frozen)
	if r.migrations != 0 || r.final.Epoch != 0 || r.sum.rehomes != 0 {
		t.Fatalf("frozen run migrated: %d migrations, epoch %d, %d re-homes", r.migrations, r.final.Epoch, r.sum.rehomes)
	}
	if v := CheckShardInvariants(r.dbs, c, r.final); len(v) > 0 {
		t.Fatalf("frozen-run invariants violated: %v", v)
	}
}

// TestRebalanceDifferential is the migration no-op check: the same
// deterministic workload with one forced mid-run migration must
// produce the same global TPC-C sums as the run without it: a
// migration may move data, never change it.
func TestRebalanceDifferential(t *testing.T) {
	c := rebalanceTPCC()
	cfg := WallCfg{Clients: 4, Txns: 30, Shards: 2}
	plain := runRebalance(t, c, cfg, Frozen)
	moved := runRebalance(t, c, cfg, Forced)
	if moved.migrations < 1 {
		t.Fatal("Forced run performed no migration")
	}
	if v := CheckShardInvariants(plain.dbs, c, plain.final); len(v) > 0 {
		t.Fatalf("plain-run invariants violated: %v", v)
	}
	if v := CheckShardInvariants(moved.dbs, c, moved.final); len(v) > 0 {
		t.Fatalf("moved-run invariants violated: %v", v)
	}
	pw, po := rebalanceGlobalSums(t, plain.dbs)
	mw, mo := rebalanceGlobalSums(t, moved.dbs)
	if math.Abs(pw-mw) > 1e-6*math.Max(1, math.Abs(pw)) {
		t.Fatalf("sum(w_ytd) differs with migration: %v vs %v", pw, mw)
	}
	if po != mo {
		t.Fatalf("order count differs with migration: %d vs %d", po, mo)
	}
}

// rebalanceGlobalSums folds sum(w_ytd) and the order count over every
// shard — the quantities a migration must carry across unchanged.
func rebalanceGlobalSums(t *testing.T, dbs []*sqldb.DB) (wytd float64, orders int64) {
	t.Helper()
	for _, db := range dbs {
		s := db.NewSession()
		rs, err := s.Query("SELECT SUM(w_ytd) FROM warehouse")
		if err != nil {
			t.Fatal(err)
		}
		wytd += rs.Rows[0][0].AsFloat()
		rs, err = s.Query("SELECT COUNT(*) FROM orders")
		if err != nil {
			t.Fatal(err)
		}
		orders += rs.Rows[0][0].I
	}
	return wytd, orders
}

// rebalanceTier spins up a 2-shard dbapi tier over in-process pipes and
// hands back everything a migration fault test needs. wrap, when
// non-nil, may wrap the client end of each shard's connection — the
// place a test injects wire faults.
func rebalanceTier(t *testing.T, c TPCCConfig, wrap func(shard int, cli io.ReadWriteCloser) io.ReadWriteCloser) (sc *runtime.ShardedClient, pool *rpc.ShardedPool, dbs []*sqldb.DB) {
	t.Helper()
	smap := runtime.ShardMap{Shards: 2, Warehouses: c.Warehouses}
	dbs = make([]*sqldb.DB, 2)
	for i := range dbs {
		lo, hi := smap.WarehouseRange(i)
		dbs[i] = c.LoadRange(int(lo), int(hi))
	}
	sc = runtime.NewShardedClient(smap)
	parts := []*dbapi.Participant{
		dbapi.NewParticipant(0, sc.TwoPC.Outcome),
		dbapi.NewParticipant(0, sc.TwoPC.Outcome),
	}
	pool, err := rpc.NewShardedPool(2, 1, func(shard, _ int) (io.ReadWriteCloser, error) {
		srv, cli := net.Pipe()
		go rpc.ServeMuxConnConfig(srv, dbapi.MuxHandlersTxn(dbs[shard], parts[shard], nil), rpc.MuxServeConfig{})
		if wrap != nil {
			return wrap(shard, cli), nil
		}
		return cli, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return sc, pool, dbs
}

// TestMigrateDestShardDown severs the destination shard's wire on the
// first frame the migrator sends it after the source fence has armed —
// mid-move, before the stream can land. The move must fail, the fence
// must come down, the epoch must not advance, and the source must keep
// serving the range it almost lost.
//
// The kill is a wire fault, not a race: Move arms the fence (and has
// its reply) before it sends the destination anything, so "first
// destination frame with the fence armed" is always the destination's
// first install, which carries its Begin. The test used to poll FenceArmed from a second goroutine every
// 100 µs and cut the pipes when it saw the fence; under CPU contention
// a whole move (1–3 ms) fits between two polls, the killer never
// fired, and Move — correctly — succeeded against a destination that
// was alive throughout (2PC commits=1, in doubt=0), after which the
// poll loop ran out its 10 000 sleeps: the "move succeeded with a dead
// destination" failures after 11 s were that, a wrong premise in the
// test, not a decision deadline expiring against a dead shard. A kill
// that lands after the cutover decision is likewise a success by
// design: the decision is logged and the destination converges by
// re-query.
func TestMigrateDestShardDown(t *testing.T) {
	c := rebalanceTPCC()
	var (
		src     *sqldb.DB // shard 0's database, set once the tier is up
		severed bool
	)
	sc, pool, dbs := rebalanceTier(t, c, func(shard int, cli io.ReadWriteCloser) io.ReadWriteCloser {
		if shard != 1 {
			return cli
		}
		fc := faultconn.New(cli)
		fc.Fail = func(int, []byte) (int, bool) {
			if armed, _ := src.FenceArmed(); !armed {
				return 0, false
			}
			severed = true
			_ = cli.Close()
			return 0, true
		}
		return fc
	})
	src = dbs[0]
	mg := &runtime.Migrator{Client: sc, Pool: pool, Tables: TPCCWarehouseKeys()}

	// Move writes the destination's frames on this goroutine, so Fail
	// runs here too: src and severed need no lock.
	_, err := mg.Move(0, 1, 3, 4)
	if !severed {
		t.Fatal("the destination's wire was never severed: nothing was tested")
	}
	if err == nil {
		t.Fatal("move succeeded with a dead destination")
	}
	if !strings.Contains(err.Error(), "migrate stream: install ") {
		t.Fatalf("move failed somewhere other than the destination's first frame: %v", err)
	}
	if errors.Is(err, runtime.ErrWrongShard) {
		t.Fatalf("dead destination misreported as ownership error: %v", err)
	}
	if sc.MapEpoch() != 0 {
		t.Fatalf("failed move advanced the epoch to %d", sc.MapEpoch())
	}
	if armed, _ := dbs[0].FenceArmed(); armed {
		t.Fatal("fence still armed after the aborted move")
	}
	// The source still owns and serves the range it almost lost.
	sess, err := pool.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()
	if _, err := c.paymentNative(conn, 3, 1, 1, 10); err != nil {
		t.Fatalf("source stopped serving the unmoved range: %v", err)
	}
	if v := CheckShardInvariants(dbs, c, sc.CurrentMap()); len(v) > 0 {
		t.Fatalf("aborted move broke invariants: %v", v)
	}
}

// TestMigrateFenceAbandonTTL is the coordinator-death fault at the
// wire level: a fence armed over the mux and never released (the
// coordinator "dies" between FENCE and CUTOVER) must lapse on its TTL
// and let the source serve again.
func TestMigrateFenceAbandonTTL(t *testing.T) {
	c := rebalanceTPCC()
	_, pool, _ := rebalanceTier(t, c, nil)

	sess, err := pool.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	coordinator := dbapi.NewClient(sess)
	if _, err := coordinator.Fence(sqldb.FenceSpec{Tables: TPCCWarehouseKeys(), Lo: 1, Hi: 2}, 50*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	// The coordinator dies: its session goes away without a release.
	_ = coordinator.Close()

	work, err := pool.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(work)
	defer conn.Close()
	// Immediately the range is fenced...
	if _, err := c.paymentNative(conn, 1, 1, 1, 5); !errors.Is(err, sqldb.ErrRangeFenced) {
		t.Fatalf("want ErrRangeFenced while fence lives, got %v", err)
	}
	// ...and after the TTL it serves again, no release required.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.paymentNative(conn, 1, 1, 1, 5)
		if err == nil {
			break
		}
		if !errors.Is(err, sqldb.ErrRangeFenced) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("fence never lapsed after its TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A later migration can re-arm over the lapsed fence.
	if _, err := conn.Fence(sqldb.FenceSpec{Tables: TPCCWarehouseKeys(), Lo: 1, Hi: 1}, time.Second, 0); err != nil {
		t.Fatalf("re-arm over lapsed fence: %v", err)
	}
	if _, err := c.paymentNative(conn, 1, 1, 1, 5); !errors.Is(err, sqldb.ErrRangeFenced) {
		t.Fatalf("re-armed fence not enforced, got %v", err)
	}
}

// TestRebalanceForcedMoveKeysRelocate pins the data plane: after a
// forced move, the moved warehouses' rows live on the destination and
// are tombstoned on the source.
func TestRebalanceForcedMoveKeysRelocate(t *testing.T) {
	c := rebalanceTPCC()
	sc, pool, dbs := rebalanceTier(t, c, nil)
	mg := &runtime.Migrator{Client: sc, Pool: pool, Tables: TPCCWarehouseKeys()}
	mv, err := mg.Move(0, 1, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Rows == 0 {
		t.Fatal("move streamed no rows")
	}
	for _, w := range []int64{3, 4} {
		if home := sc.CurrentMap().Shard(w); home != 1 {
			t.Fatalf("warehouse %d maps to shard %d after move", w, home)
		}
	}
	// Destination owns the rows.
	s1 := dbs[1].NewSession()
	rs, err := s1.Query("SELECT COUNT(*) FROM warehouse WHERE w_id = ?", val.IntV(3))
	if err != nil || rs.Rows[0][0].I != 1 {
		t.Fatalf("destination missing moved warehouse: %v %v", rs, err)
	}
	// Source redirects with the typed tombstone error.
	sess, err := pool.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()
	if _, err := c.paymentNative(conn, 3, 1, 1, 5); !errors.Is(err, sqldb.ErrRangeMoved) {
		t.Fatalf("source did not tombstone the moved range: %v", err)
	}
	if v := CheckShardInvariants(dbs, c, sc.CurrentMap()); len(v) > 0 {
		t.Fatalf("post-move invariants violated: %v", v)
	}
}
