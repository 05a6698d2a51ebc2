// Package bench reproduces the paper's evaluation (§7): the TPC-C and
// TPC-W workloads in PyxJ plus hand-written JDBC-style and Manual
// (stored-procedure-style) implementations, the two microbenchmarks,
// and the drivers that regenerate every figure. Timing comes from the
// deterministic simulator in internal/sim; the database operations,
// partitioned programs and wire traffic are real.
//
// The package also holds what the rest of the tree checks a deployed
// tier against: the ledger workload and the ledger and TPC-C audits
// (CheckLedger, CheckTPCCInvariants, CheckTPCCBalances). End-to-end
// latency and throughput are benchmark/'s to measure. The wall-clock
// properties of pools and admission are this package's tests, which
// stand a tier up with deploy.Up and fan the clients out over one
// test-only driver.
package bench

import (
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/sim"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// CostModel converts execution events into virtual time. Defaults are
// calibrated in calibrate.go to land near the paper's testbed numbers
// (2 ms ping, MySQL-era per-operation costs, the ~6× Pyxis
// interpretation overhead measured by microbenchmark 1).
type CostModel struct {
	// RTT is the network round-trip time in seconds.
	RTT float64
	// BandwidthBps is the link bandwidth (bytes/second).
	BandwidthBps float64
	// DBOpCost is database-server CPU seconds per database operation.
	DBOpCost float64
	// InstrCost is CPU seconds per Pyxis block instruction (the ~6×
	// interpretive overhead shows up here).
	InstrCost float64
	// NativeLogicCost is CPU seconds of application logic per
	// transaction for the hand-written implementations (≈ the Pyxis
	// instruction cost divided by the interpretation overhead).
	NativeLogicCost float64
	// Sha1Cost is CPU seconds per sys.sha1 call.
	Sha1Cost float64
	// DBReqBytes/DBRespBytes approximate database wire message sizes
	// for per-operation network accounting.
	DBReqBytes, DBRespBytes int
}

// DefaultCosts mirror the paper's environment.
func DefaultCosts() CostModel {
	return CostModel{
		RTT:             0.002,
		BandwidthBps:    125e6, // ~1 Gbit/s
		DBOpCost:        0.00045,
		InstrCost:       0.000012, // 12 µs per block instruction
		NativeLogicCost: 0.0012,
		Sha1Cost:        0.0000025,
		DBReqBytes:      120,
		DBRespBytes:     240,
	}
}

// Env implements runtime.Env on top of the simulator: it charges
// virtual CPU on the right server's core pool and virtual network time
// on the shared link. CPU charges are coalesced and flushed at
// interaction points so event counts stay manageable.
type Env struct {
	P      *sim.Proc
	AppCPU *sim.Resource
	DBCPU  *sim.Resource
	Link   *sim.Link
	CM     CostModel

	// DBSlow, when set, scales DB-side logic execution time (fair-share
	// slowdown from external processes competing for the database
	// server's cores — the Fig. 11 load spike). Engine operations are
	// not scaled: the paper's Fig. 11 shows JDBC latency unaffected by
	// the spike, i.e. the DBMS kept serving operations at speed while
	// colocated program logic starved.
	DBSlow func() float64

	pendApp, pendDB float64 // accumulated CPU seconds not yet charged
}

func (e *Env) dbSlowdown() float64 {
	if e.DBSlow == nil {
		return 1
	}
	return e.DBSlow()
}

const flushThreshold = 0.002 // seconds of accumulated CPU per flush

func (e *Env) pend(side pdg.Loc) *float64 {
	if side == pdg.DB {
		return &e.pendDB
	}
	return &e.pendApp
}

func (e *Env) cpu(side pdg.Loc) *sim.Resource {
	if side == pdg.DB {
		return e.DBCPU
	}
	return e.AppCPU
}

// Flush charges all accumulated CPU debt.
func (e *Env) Flush() {
	if e.pendApp > 0 {
		e.AppCPU.Use(e.P, e.pendApp)
		e.pendApp = 0
	}
	if e.pendDB > 0 {
		e.DBCPU.Use(e.P, e.pendDB)
		e.pendDB = 0
	}
}

// BlockExecuted implements runtime.Env.
func (e *Env) BlockExecuted(side pdg.Loc, instrs int) {
	p := e.pend(side)
	cost := float64(instrs) * e.CM.InstrCost
	if side == pdg.DB {
		cost *= e.dbSlowdown()
	}
	*p += cost
	if *p >= flushThreshold {
		e.cpu(side).Use(e.P, *p)
		*p = 0
	}
}

// DBCall implements runtime.Env: a database operation issued from the
// application server pays a round trip; the engine work itself is
// database CPU either way.
func (e *Env) DBCall(side pdg.Loc) {
	e.Flush()
	if side == pdg.App {
		e.Link.Transfer(e.P, e.CM.DBReqBytes)
	}
	e.DBCPU.Use(e.P, e.CM.DBOpCost)
	if side == pdg.App {
		e.Link.Transfer(e.P, e.CM.DBRespBytes)
	}
}

// Sha1 implements runtime.Env.
func (e *Env) Sha1(side pdg.Loc) {
	p := e.pend(side)
	cost := e.CM.Sha1Cost
	if side == pdg.DB {
		cost *= e.dbSlowdown()
	}
	*p += cost
	if *p >= flushThreshold {
		e.cpu(side).Use(e.P, *p)
		*p = 0
	}
}

// TransferSend implements runtime.Env: control-transfer messages pay
// link latency plus serialization at the measured message size.
func (e *Env) TransferSend(from pdg.Loc, bytes int) {
	e.Flush()
	e.Link.Transfer(e.P, bytes)
}

// Logic charges native (non-Pyxis) application-logic CPU.
func (e *Env) Logic(side pdg.Loc, seconds float64) {
	if side == pdg.DB {
		seconds *= e.dbSlowdown()
	}
	e.cpu(side).Use(e.P, seconds)
}

// ---------------------------------------------------------------------------
// Metered database connections for the native implementations
// ---------------------------------------------------------------------------

// simConn wraps an embedded session and charges the cost model per
// operation as if issued from the given side. The JDBC implementation
// uses side=App (every op is a round trip); the Manual implementation
// uses side=DB (colocated).
type simConn struct {
	inner *dbapi.Local
	env   *Env
	side  pdg.Loc
	// Ops counts operations for reporting.
	Ops int64
}

func newSimConn(db *sqldb.DB, env *Env, side pdg.Loc) *simConn {
	l := dbapi.NewLocal(db)
	l.Sess.WaitPoint = env.P.WaitPoint
	return &simConn{inner: l, env: env, side: side}
}

func (c *simConn) charge() {
	c.Ops++
	c.env.DBCall(c.side)
}

func (c *simConn) Exec(sql string, args ...val.Value) (int, error) {
	c.charge()
	return c.inner.Exec(sql, args...)
}

func (c *simConn) Query(sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	c.charge()
	return c.inner.Query(sql, args...)
}

func (c *simConn) ExecStmt(id int, sql string, args ...val.Value) (int, error) {
	c.charge()
	return c.inner.ExecStmt(id, sql, args...)
}

func (c *simConn) QueryStmt(id int, sql string, args ...val.Value) (*sqldb.ResultSet, error) {
	c.charge()
	return c.inner.QueryStmt(id, sql, args...)
}

func (c *simConn) Begin() error    { c.charge(); return c.inner.Begin() }
func (c *simConn) Commit() error   { c.charge(); return c.inner.Commit() }
func (c *simConn) Rollback() error { c.charge(); return c.inner.Rollback() }
func (c *simConn) Close() error    { return nil }

// InTxn reports whether the underlying session has an open transaction.
func (c *simConn) InTxn() bool { return c.inner.Sess.InTxn() }
