package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// This file holds what differs between the wall-clock experiments: the
// step one client runs (a ledger call, a TPC-C entry call, a remote
// TPC-C transaction over two 2PC branches, a call routed by the
// switcher, a native transaction routed by a shard map that moves) and
// the four compositions of deploy + drive that run them.

// WallCfg is the closed-loop load and the tier it runs against.
type WallCfg struct {
	Clients int // concurrent sessions (goroutines)
	Txns    int // transactions per client (per phase under the load ramp)
	Shards  int // independent shard servers (default 1; at most one per warehouse)
	Conns   int // pooled mux connections per shard and wire (default 1)
}

// topology validates cfg and turns it into the topology of a tier
// hosting high (and low) whose shards split warehouses (0: nothing to
// split, keys hash) and load their databases with load.
func (cfg WallCfg) topology(warehouses int, high, low *pyxis.Partition, load func(m runtime.ShardMap, shard int) (*sqldb.DB, error)) (deploy.Topology, error) {
	if cfg.Clients < 1 || cfg.Txns < 1 {
		return deploy.Topology{}, fmt.Errorf("bench: a wall-clock run needs Clients >= 1 and Txns >= 1")
	}
	m := runtime.ShardMap{Shards: max(cfg.Shards, 1), Warehouses: warehouses}
	if warehouses > 0 && m.Shards > warehouses {
		return deploy.Topology{}, fmt.Errorf("bench: %d shards over %d warehouses would leave empty shards", m.Shards, warehouses)
	}
	return deploy.Topology{Map: m, Conns: cfg.Conns, High: high, Low: low,
		NewDB: func(shard int) (*sqldb.DB, error) { return load(m, shard) }}, nil
}

// loadRange loads each shard's slice of c's database.
func (c TPCCConfig) loadRange(m runtime.ShardMap, shard int) (*sqldb.DB, error) {
	lo, hi := m.WarehouseRange(shard)
	return c.LoadRange(int(lo), int(hi)), nil
}

// colocatedMonitor is the server's load monitor with its organic
// saturation points pushed out of reach. Clients share this process
// with the server, so goroutine counts say nothing about DB CPU and
// colocated lock waits would trip the blend nondeterministically; what
// drives these experiments is forced (the external ramp, the session
// cap). QueueDepth and LockWaitRate still ride every report, and the
// two-process cmd/pyxis-dbserver keeps the calibrated defaults.
func colocatedMonitor(db *sqldb.DB) *runtime.LoadMonitor {
	mon := runtime.NewLoadMonitor(db)
	mon.GoroutineSat = 1 << 20
	mon.LockWaitSat = 1 << 20
	return mon
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

// LedgerMix is the ledger workload's schedule.
type LedgerMix struct {
	// ShareEvery: every k-th deposit goes to the shared account (a
	// contended row). 0 disables sharing.
	ShareEvery int
	// DepositEvery makes every k-th call a deposit; the rest are
	// balance reads, which keep the handler cheap so the run is
	// wire-bound — exactly where a connection pool pays off. 0 = all
	// deposits.
	DepositEvery int
}

// WallLedger drives cfg.Clients concurrent ledger sessions — each its
// own logical thread of control with its own Ledger object — against
// cfg's tier, and returns the result plus the databases so callers can
// audit CheckLedger themselves.
func WallLedger(part *pyxis.Partition, cfg WallCfg, mix LedgerMix) (*WallResult, []*sqldb.DB, error) {
	t, err := cfg.topology(0, part, nil, func(runtime.ShardMap, int) (*sqldb.DB, error) { return parallelDB(cfg.Clients) })
	if err != nil {
		return nil, nil, err
	}
	d, err := deploy.Up(t)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	res := newWallResult(d, cfg.Clients, cfg.Clients*cfg.Txns)
	out, err := drive(cfg.Clients, cfg.Txns,
		func(i int) (*deploy.Client, error) {
			c, err := d.Open(d.Router.HomeShard(int64(i)), false, "Ledger", val.IntV(int64(i)))
			if err == nil {
				res.placed(d, c)
			}
			return c, err
		},
		func(s *deploy.Client, i, k int) (txnOut, error) {
			if mix.DepositEvery > 0 && k%mix.DepositEvery != 0 {
				_, err := s.CallEntry("Ledger.balance", s.OID, val.IntV(int64(i)))
				return txnOut{kind: kindRead}, err
			}
			acct := int64(i)
			if mix.ShareEvery > 0 && k%mix.ShareEvery == 0 {
				acct = int64(cfg.Clients) // the contended shared account
			}
			_, err := s.CallEntry("Ledger.deposit", s.OID, val.IntV(acct), val.IntV(int64(k)), val.DoubleV(1))
			return txnOut{kind: kindDeposit}, err
		})
	if err != nil {
		return nil, nil, err
	}
	res.fold(out)
	res.observe(d)
	res.Violations = CheckLedger(d.DBs, res.Deposits)
	return res, d.DBs, nil
}

// ---------------------------------------------------------------------------
// TPC-C through the partitioned program
// ---------------------------------------------------------------------------

// TPCCMix is the TPC-C workload's schedule.
type TPCCMix struct {
	// PaymentEvery makes every k-th transaction a Payment (0 disables
	// payments; 3 gives a roughly TPC-C-like share of the mix).
	PaymentEvery int
	// WriteEvery makes every k-th call a write transaction; the rest
	// call the read-only TPCC.lastOrder entry, which keeps the per-call
	// engine work small so a single server's wire saturates first —
	// exactly the head-of-line scale-out removes. 0 = every call writes.
	WriteEvery int
	// RemoteMix enables the TPC-C remote-warehouse rolls (spec §2.4.1.5
	// and §2.5.1.2): 15% of Payments debit a customer resident at
	// another warehouse, ~10% of NewOrders draw stock from a remote
	// supply warehouse. A remote warehouse owned by another shard makes
	// the transaction distributed: its branches run over both shards'
	// database wires and commit through two-phase commit.
	RemoteMix bool
}

// tpccTxn is one scheduled transaction: the TPCC entry method and its
// arguments, plus the raw parameters for the paths that run it as
// native statements instead.
type tpccTxn struct {
	kind   txnKind
	method string
	args   []val.Value
	// remoteW is the customer's (Payment) or supply (NewOrder)
	// warehouse when the remote roll fired, else 0.
	remoteW                    int64
	wid, did, cid, olcnt, seed int64
	rollback                   bool
	amount                     float64
}

// parallelTxn is client i's k-th transaction under mix, with the home
// warehouse kept inside [loW, hiW]. It is a pure function of its
// arguments, so a reference run can replay the schedule.
func (c TPCCConfig) parallelTxn(mix TPCCMix, i, k int, loW, hiW int64) tpccTxn {
	seq := int64(i)*1_000_003 + int64(k)
	t := tpccTxn{kind: kindNewOrder, method: "newOrder", amount: float64(seq%97 + 1)}
	t.wid, t.did, t.cid, t.olcnt, t.seed, t.rollback = c.txnParamsRange(seq, loW, hiW)
	switch {
	case mix.WriteEvery > 1 && k%mix.WriteEvery != 0:
		t.kind, t.method = kindRead, "lastOrder"
		return t
	case mix.PaymentEvery > 0 && k%mix.PaymentEvery == 0:
		t.kind, t.method = kindPayment, "payment"
		t.args = []val.Value{val.IntV(t.wid), val.IntV(t.did), val.IntV(t.cid), val.DoubleV(t.amount)}
	default:
		t.args = []val.Value{val.IntV(t.wid), val.IntV(t.did), val.IntV(t.cid), val.IntV(t.olcnt),
			val.IntV(t.seed), val.IntV(int64(c.Items)), val.BoolV(t.rollback)}
	}
	if mix.RemoteMix {
		payRemote, noRemote, remW := c.remoteRoll(seq, t.wid)
		if (t.kind == kindPayment && payRemote) || (t.kind == kindNewOrder && noRemote) {
			t.remoteW = remW
		}
	}
	return t
}

// tpccSession is one client's TPCC object on its home shard.
type tpccSession struct {
	*deploy.Client
	d      *deploy.Tier
	lo, hi int64 // the home shard's warehouses: every home warehouse stays inside
	// branches are lazily-opened sessions on the other shards, one per
	// shard for the session's lifetime: a remote-warehouse transaction
	// runs its second branch over the remote shard's own wire.
	branches map[int]*dbapi.Client
	// release, when set, must report true before a session that ran all
	// its transactions gives up its admission slot; see WallTPCC.
	release func() bool
}

// openTPCC opens client i's session. Clients spread evenly over
// warehouses; the home warehouse picks the shard.
func openTPCC(d *deploy.Tier, c TPCCConfig, i int) (*tpccSession, error) {
	shard := d.Router.HomeShard(int64(i%c.Warehouses) + 1)
	cl, err := d.Open(shard, false, "TPCC")
	if err != nil {
		return nil, err
	}
	s := &tpccSession{Client: cl, d: d, branches: map[int]*dbapi.Client{}}
	s.lo, s.hi = d.Router.Map.WarehouseRange(shard)
	return s, nil
}

// hold keeps the finished session's admission slot until release says
// the server has refused someone else.
func (s *tpccSession) hold() {
	for deadline := time.Now().Add(openTimeout); s.release != nil && !s.release() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func (s *tpccSession) Close() error {
	for _, b := range s.branches {
		b.Close()
	}
	return s.Client.Close()
}

// rollbackJoin rolls conn back because of err (nil for the intentional
// TPC-C rollback) and returns err with any rollback failure joined on,
// so a branch connection that died during an abort shows in the
// failure. ErrNoTransaction is not one: a deadlock victim was already
// rolled back engine-side.
func rollbackJoin(err error, conn dbapi.Conn) error {
	if rerr := conn.Rollback(); rerr != nil && !errors.Is(rerr, sqldb.ErrNoTransaction) {
		return errors.Join(err, fmt.Errorf("rollback: %w", rerr))
	}
	return err
}

// run makes one attempt at t: an entry call through the partitioned
// program, or — when the remote roll fired — the same statements
// issued natively over the home branch and the remote warehouse's
// branch, committed through the 2PC coordinator when the two are on
// different shards.
func (s *tpccSession) run(c TPCCConfig, t tpccTxn) (txnOut, error) {
	out := txnOut{kind: t.kind, remote: t.remoteW != 0}
	if !out.remote {
		_, err := s.CallEntry("TPCC."+t.method, s.OID, t.args...)
		return out, err
	}
	home, branch := s.Conn, s.Conn
	if rsh := s.d.Router.HomeShard(t.remoteW); rsh != s.Shard {
		if branch = s.branches[rsh]; branch == nil {
			sess, err := s.d.DB.Session(rsh)
			if err != nil {
				return out, err
			}
			branch = dbapi.NewClient(sess)
			s.branches[rsh] = branch
		}
		out.dist = true
	}
	if err := home.Begin(); err != nil {
		return out, err
	}
	abort := func(err error) error { return rollbackJoin(err, home) }
	if out.dist {
		if err := branch.Begin(); err != nil {
			return out, abort(err)
		}
		abort = func(err error) error { return rollbackJoin(rollbackJoin(err, home), branch) }
	}
	if t.kind == kindPayment {
		if err := c.paymentRemoteStmts(home, branch, t.wid, t.did, t.remoteW, t.did, t.cid, t.amount); err != nil {
			return out, abort(err)
		}
	} else {
		if _, err := c.newOrderRemoteStmts(home, branch, t.wid, t.did, t.cid, t.olcnt, t.seed, t.remoteW); err != nil {
			return out, abort(err)
		}
		if t.rollback {
			// The intentional TPC-C rollback: nothing prepared yet, so
			// both branches abort unilaterally — trivially atomic.
			return out, abort(nil)
		}
	}
	if !out.dist {
		return out, home.Commit()
	}
	// On failure both branches are aborted (or converge to abort via
	// presumed abort) — no cleanup owed.
	tx := s.d.Router.TwoPC
	if err := tx.Commit(tx.NewGID(), home, branch); err != nil {
		return out, err
	}
	out.distCommit = true
	return out, nil
}

// WallTPCC drives cfg.Clients concurrent sessions of the TPC-C mix
// through the partitioned program against cfg.Shards independent shard
// servers, each owning a disjoint warehouse range. Every client is
// assigned a home warehouse, opens its sessions on that warehouse's
// shard and keeps its home warehouses inside the shard's range; only
// mix.RemoteMix points a transaction at another shard. It returns the
// result plus the per-shard databases so callers can audit
// CheckShardInvariants themselves.
//
// With maxSessions > 0 the single server sits behind an admission
// controller that admits only that many sessions at once. Excess
// sessions are shed with rpc.ErrOverloaded and retry with jittered
// backoff until slots free, so the run completes every transaction
// while the concurrent population — and with it queue growth and p95 —
// stays bounded.
func WallTPCC(part *pyxis.Partition, c TPCCConfig, cfg WallCfg, mix TPCCMix, maxSessions int) (*WallResult, []*sqldb.DB, error) {
	t, err := cfg.topology(c.Warehouses, part, nil, c.loadRange)
	if err != nil {
		return nil, nil, err
	}
	var adm *runtime.AdmissionController
	if maxSessions > 0 {
		if t.Map.Shards > 1 {
			return nil, nil, fmt.Errorf("bench: maxSessions gates one server; got %d shards", t.Map.Shards)
		}
		t.Mux = func(_ int, db *sqldb.DB) rpc.MuxServeConfig {
			mon := colocatedMonitor(db)
			adm = runtime.NewAdmissionController(mon, runtime.AdmissionConfig{MaxSessions: maxSessions})
			return rpc.MuxServeConfig{Load: mon.Source(), Admission: adm}
		}
	}
	d, err := deploy.Up(t)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	res := newWallResult(d, cfg.Clients, cfg.Clients*cfg.Txns)

	// With more clients than slots a shed is inevitable — but only if
	// the admitted sessions actually overlap the excess clients'
	// arrival, which goroutine scheduling (especially on few cores) does
	// not guarantee for a short workload. So the first wave of admitted
	// clients HOLDS its sessions until the server has refused one: the
	// excess clients keep retrying against full slots, the controller
	// counts a shed, the holders release. That makes the saturation
	// genuinely forced rather than scheduling-dependent, with no deadlock
	// — the waiters' retries are exactly what moves the counter.
	var release func() bool
	if adm != nil && cfg.Clients > maxSessions {
		release = func() bool { return adm.Stats().ShedSessions > 0 }
	}
	out, err := drive(cfg.Clients, cfg.Txns,
		func(i int) (*tpccSession, error) {
			s, err := openTPCC(d, c, i)
			if err != nil {
				return nil, err
			}
			s.release = release
			res.placed(d, s.Client)
			return s, nil
		},
		func(s *tpccSession, i, k int) (txnOut, error) {
			return s.run(c, c.parallelTxn(mix, i, k, s.lo, s.hi))
		})
	if err != nil {
		return nil, nil, err
	}
	res.fold(out)
	res.observe(d)
	if adm != nil {
		// Admission slots release asynchronously: the server worker
		// frees a session's slot only after the handler drained (mux
		// close path), which can land after the client's Close returns.
		// Wait for the controller to converge so the snapshot reflects
		// the settled state.
		for deadline := time.Now().Add(2 * time.Second); adm.Stats().Sessions != 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		res.Admission = &AdmissionResult{MaxSessions: maxSessions, AdmissionStats: adm.Stats()}
	}
	res.Violations = CheckShardInvariants(d.DBs, c, d.Router.CurrentMap())
	return res, d.DBs, nil
}

// ---------------------------------------------------------------------------
// TPC-C under the §6.3 switcher
// ---------------------------------------------------------------------------

// DynamicRamp is the forced external DB load (percent) of each phase:
// the idle → spike → recover ramp of Fig. 11, the wall-clock analogue
// of its background spike.
var DynamicRamp = []struct {
	Name string
	Load float64
}{{"idle", 5}, {"spike", 95}, {"recover", 5}}

// dynSession is one logical client spanning a (high, low) session pair
// — the low-budget control session rides the tag byte of its mux
// session ID — with one TPCC object on each heap.
type dynSession struct {
	high, low *deploy.Client
	dyn       *runtime.DynamicClient
}

// Close is a no-op: the pair stays open across the ramp's phases and
// WallDynamic closes it.
func (*dynSession) Close() error { return nil }

// openDynamic opens one client's session pair on the single server.
func openDynamic(d *deploy.Tier) (*dynSession, error) {
	high, err := d.Open(0, false, "TPCC")
	if err != nil {
		return nil, err
	}
	low, err := d.Open(0, true, "TPCC")
	if err != nil {
		high.Close()
		return nil, err
	}
	return &dynSession{high: high, low: low, dyn: &runtime.DynamicClient{High: high.Client, Low: low.Client,
		Switcher: d.Router.Switcher(0)}}, nil
}

// WallDynamic is the wall-clock counterpart of Fig. 11: the paper's
// §6.3 dynamic switching running live through the concurrent runtime
// instead of the discrete-event simulator (figures.go). One DB server
// hosts BOTH deployments behind a dual SessionManager; a LoadMonitor
// samples the server's real saturation signal plus the forced ramp and
// piggy-backs it on every mux reply. The application side folds the
// reports into one shared Switcher EWMA while every session routes its
// next entry call independently through its own DynamicClient — so
// during a load transition, concurrent sessions genuinely disagree
// about the best deployment. Each phase of DynamicRamp runs cfg.Txns
// transactions per client on sessions that stay open across phases.
func WallDynamic(high, low *pyxis.Partition, c TPCCConfig, cfg WallCfg, mix TPCCMix) (*WallResult, []*sqldb.DB, error) {
	t, err := cfg.topology(c.Warehouses, high, low, c.loadRange)
	if err != nil {
		return nil, nil, err
	}
	if t.Map.Shards > 1 {
		return nil, nil, fmt.Errorf("bench: the switcher ramp loads one server; got %d shards", t.Map.Shards)
	}
	var mon *runtime.LoadMonitor
	t.Mux = func(_ int, db *sqldb.DB) rpc.MuxServeConfig {
		mon = colocatedMonitor(db)
		mon.SetExternal(DynamicRamp[0].Load)
		return rpc.MuxServeConfig{Load: mon.Source()}
	}
	d, err := deploy.Up(t)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	// The tier feeds the shared EWMA from every reply on both wires:
	// control transfers while the high-budget deployment serves, database
	// round trips while the low-budget one does.
	sessions := make([]*dynSession, cfg.Clients)
	for i := range sessions {
		s, err := openDynamic(d)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: dynamic session %d: %w", i, err)
		}
		defer s.dyn.Close()
		sessions[i] = s
		// One unrecorded warm-up NewOrder per session (the low side stays
		// cold, which is fine — the goal is warming the shared plan cache
		// and interpreter paths so phase-boundary latencies reflect
		// steady state, not cold starts).
		warm := c.parallelTxn(TPCCMix{}, i, 977_777, 1, int64(c.Warehouses))
		warm.args[len(warm.args)-1] = val.BoolV(false)
		if _, err := s.high.CallEntry("TPCC.newOrder", s.high.OID, warm.args...); err != nil {
			return nil, nil, fmt.Errorf("bench: dynamic warmup session %d: %w", i, err)
		}
	}

	res := newWallResult(d, cfg.Clients, cfg.Clients*cfg.Txns*len(DynamicRamp))
	for _, s := range sessions {
		res.placed(d, s.high)
	}
	for pi, ph := range DynamicRamp {
		mon.SetExternal(ph.Load)
		out, err := drive(cfg.Clients, cfg.Txns,
			func(i int) (*dynSession, error) {
				time.Sleep(time.Duration(i) * phaseStagger)
				return sessions[i], nil
			},
			func(s *dynSession, i, k int) (txnOut, error) {
				// CallEntry re-picks per attempt (the EWMA may move between
				// retries) and absorbs overload sheds with backoff of its
				// own; what is left over is retry's.
				tx := c.parallelTxn(mix, i, pi*cfg.Txns+k, 1, int64(c.Warehouses))
				r, err := s.dyn.CallEntry("TPCC."+tx.method, s.high.OID, s.low.OID, tx.args...)
				return txnOut{kind: tx.kind, low: r.Low, sheds: r.Sheds}, err
			})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: phase %s: %w", ph.Name, err)
		}
		pr := PhaseResult{Name: ph.Name, Load: ph.Load, Elapsed: out.elapsed, EWMA: d.Router.Load(0)}
		distinct := map[int64]bool{}
		for _, t := range out.clients {
			pr.Txns += len(t.local)
			pr.LowPicks += t.low
			pr.PerSessionLow = append(pr.PerSessionLow, t.low)
			distinct[t.low] = true
		}
		pr.HighPicks = int64(pr.Txns) - pr.LowPicks
		pr.DistinctMixes = len(distinct)
		if pr.Txns > 0 {
			pr.LowShare = float64(pr.LowPicks) / float64(pr.Txns)
		}
		if s := out.elapsed.Seconds(); s > 0 {
			pr.Tput = float64(pr.Txns) / s
		}
		res.Phases = append(res.Phases, pr)
		res.fold(out)
	}
	res.Reports = d.Ctl.LoadReports() + d.DB.LoadReports()
	res.observe(d)
	res.Violations = CheckShardInvariants(d.DBs, c, d.Router.CurrentMap())
	return res, d.DBs, nil
}

// ---------------------------------------------------------------------------
// Native TPC-C over a shard map that moves
// ---------------------------------------------------------------------------

// Rebalancing says what the controller beside the clients does at the
// halfway point of a WallRebalance run.
type Rebalancing int

const (
	// Frozen leaves the shard map alone: the baseline measured under the
	// same skew.
	Frozen Rebalancing = iota
	// Advised asks the advisor for a plan and migrates what it chose.
	Advised
	// Forced skips the advisor and moves the upper half of shard 0's
	// base range to shard 1 regardless of load — the deterministic
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

// TPCCWarehouseKeys maps every warehouse-partitioned TPC-C table to
// its partition-key column — the table set a migration fences and
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

// WallRebalance measures live rebalancing end to end: a Zipf-skewed
// TPC-C mix makes shard 0 hot while a controller beside the clients
// waits for the halfway point. Advised, it reads the runtime.Advisor
// (imbalance ratio over its trigger), min-cuts the co-access graph
// into a migration plan, and runtime.Migrator moves the chosen
// warehouse ranges shard-to-shard over the live database wire — fence,
// stream, drain, 2PC cutover, epoch-bumped map publish — while the
// clients keep running and meet exactly the retry classes a live
// migration exposes (fenced, moved; see retry). Frozen, the identical
// workload runs without the migration, so the post-rebalance
// throughput has a denominator measured under the same skew. It
// returns the result — the final map in Migration.FinalMap — and the
// per-shard databases, so callers audit CheckShardInvariants against
// post-move ownership.
func WallRebalance(c TPCCConfig, cfg WallCfg, mode Rebalancing) (*WallResult, []*sqldb.DB, error) {
	if cfg.Shards < 2 {
		return nil, nil, fmt.Errorf("bench: rebalancing needs Shards >= 2 (got %d)", cfg.Shards)
	}
	t, err := cfg.topology(c.Warehouses, nil, nil, c.loadRange)
	if err != nil {
		return nil, nil, err
	}
	d, err := deploy.Up(t)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	adv := runtime.NewAdvisor(c.Warehouses)
	mig := &runtime.Migrator{Client: d.Router, Pool: d.DB, Tables: TPCCWarehouseKeys(), FenceTTL: fenceTTL}
	mr := &MigrationResult{}

	// The controller: woken when half the workload has committed, it
	// reads the advisor, migrates, resets the observation window and
	// records the post-migration throughput baseline.
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
			mr.ImbalanceBefore, _ = adv.Imbalance(d.Router.CurrentMap())
			ctlErr = migrate(mode, adv, mig, mr)
			// Measure the next window against the new placement only.
			adv.Reset()
		}
		postStart, postStartTxns = time.Now(), done.Load()
	}()

	res := newWallResult(d, cfg.Clients, cfg.Clients*cfg.Txns)
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
		return nil, nil, err
	}
	res.fold(out)
	res.observe(d)
	if win := time.Since(postStart).Seconds(); win > 0 {
		mr.PostTput = float64(done.Load()-postStartTxns) / win
	}
	mr.FinalMap = d.Router.CurrentMap()
	mr.FinalEpoch = mr.FinalMap.Epoch
	mr.ImbalanceAfter = runtime.ImbalanceRatio(adv.ShardLoads(mr.FinalMap))
	res.Migration = mr
	res.Violations = CheckShardInvariants(d.DBs, c, mr.FinalMap)
	return res, d.DBs, nil
}

// migrate moves what mode says to move and books it in mr.
func migrate(mode Rebalancing, adv *runtime.Advisor, mig *runtime.Migrator, mr *MigrationResult) error {
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
	for _, r := range runs {
		var mv *runtime.MoveResult
		var err error
		// The drain transaction can lose a deadlock to an in-flight
		// writer; that aborts the move cleanly (fence released, both
		// sides rolled back), so it goes through retry like any victim.
		for attempt := 0; ; attempt++ {
			if mv, err = mig.Move(from, to, r[0], r[1]); err == nil {
				break
			}
			if class, _ := retry(err, attempt); class != classDeadlock || attempt >= 4 {
				return fmt.Errorf("bench: migrate w[%d,%d]: %w", r[0], r[1], err)
			}
		}
		mr.Migrations++
		mr.RowsMoved += mv.Rows
		mr.MigrationMs += float64(mv.Elapsed.Microseconds()) / 1e3
		for w := r[0]; w <= r[1]; w++ {
			mr.MovedWarehouses = append(mr.MovedWarehouses, w)
		}
	}
	return nil
}
