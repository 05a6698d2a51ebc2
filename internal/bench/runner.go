package bench

import (
	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sim"
	"pyxis/internal/sqldb"
)

// Workload describes one benchmark implementation to drive.
type Workload struct {
	Name string
	// NewDB loads a fresh database instance.
	NewDB func() *sqldb.DB
	// NewClient builds a per-client transaction function; k is the
	// transaction sequence number (workload generator seed).
	NewClient func(db *sqldb.DB, p *sim.Proc, env *Env, id int) func(k int64) error
}

// RunCfg configures one simulated measurement (one point of a figure).
type RunCfg struct {
	Clients  int
	Rate     float64 // target transactions/second across all clients
	Warmup   float64 // simulated seconds before measurement
	Window   float64 // simulated measurement seconds
	AppCores int
	DBCores  int
	CM       CostModel
	// BGLoad occupies this many DB cores with background work
	// (emulating a contended database server).
	BGLoad int
}

// Point is one measured sample of a latency/throughput experiment.
type Point struct {
	Impl      string
	Rate      float64 // offered rate
	Tput      float64 // completed transactions/second
	MeanLatMs float64
	P95LatMs  float64
	DBUtil    float64 // percent of DB core pool busy
	AppUtil   float64 // percent of app core pool busy
	NetKBps   float64 // link bytes/second, in KB/s
	Errors    int64
}

// Run drives cfg.Clients closed-loop clients, each pacing itself to
// the per-client share of cfg.Rate (a client never has more than one
// transaction outstanding, like the paper's 20-client harness), and
// measures latency/throughput/CPU/network during the window.
func Run(w Workload, cfg RunCfg) Point {
	eng := sim.New()
	appCPU := eng.NewResource("app-cpu", cfg.AppCores)
	dbCPU := eng.NewResource("db-cpu", cfg.DBCores)
	link := eng.NewLink(cfg.CM.RTT, cfg.CM.BandwidthBps)
	db := w.NewDB()

	measureStart := cfg.Warmup
	end := cfg.Warmup + cfg.Window
	var hist sim.Hist
	completed := 0
	var errors int64

	// Background load occupies DB cores in 1 ms slices.
	for i := 0; i < cfg.BGLoad; i++ {
		eng.Spawn(0, func(p *sim.Proc) {
			for p.Now() < end {
				dbCPU.Use(p, 0.001)
			}
		})
	}

	interval := float64(cfg.Clients) / cfg.Rate
	for i := 0; i < cfg.Clients; i++ {
		i := i
		start := interval * float64(i) / float64(cfg.Clients)
		eng.Spawn(start, func(p *sim.Proc) {
			env := &Env{P: p, AppCPU: appCPU, DBCPU: dbCPU, Link: link, CM: cfg.CM}
			txn := w.NewClient(db, p, env, i)
			next := p.Now()
			for k := int64(0); ; k++ {
				if p.Now() < next {
					p.Sleep(next - p.Now())
				}
				if p.Now() >= end {
					return
				}
				next += interval
				t0 := p.Now()
				err := txn(int64(i)*1_000_003 + k)
				env.Flush()
				if t0 >= measureStart {
					if err != nil {
						errors++
					} else {
						hist.Add(p.Now() - t0)
						completed++
					}
				}
			}
		})
	}

	// One process resets the stats windows at measurement start.
	eng.Spawn(measureStart, func(p *sim.Proc) {
		appCPU.ResetStats()
		dbCPU.ResetStats()
		link.ResetStats()
	})

	eng.Run(end)

	return Point{
		Impl:      w.Name,
		Rate:      cfg.Rate,
		Tput:      float64(completed) / cfg.Window,
		MeanLatMs: hist.Mean() * 1e3,
		P95LatMs:  hist.P(0.95) * 1e3,
		DBUtil:    dbCPU.Utilization() * 100,
		AppUtil:   appCPU.Utilization() * 100,
		NetKBps:   link.Throughput() / 1e3,
		Errors:    errors,
	}
}

// SimClient is one simulated client's Pyxis deployment.
type SimClient struct {
	Client  *runtime.Client
	AppConn *dbapi.Local
	DBConn  *dbapi.Local
	DBPeer  *runtime.Peer
}

// RollbackAll aborts any transaction left open on either side (used
// when a transaction fails mid-flight, e.g. as a deadlock victim).
func (sc *SimClient) RollbackAll() {
	if sc.AppConn.Sess.InTxn() {
		_ = sc.AppConn.Rollback()
	}
	if sc.DBConn.Sess.InTxn() {
		_ = sc.DBConn.Rollback()
	}
}

// NewSimClient wires one simulated client's Pyxis deployment: an APP
// peer and a DB peer sharing the compiled program, both charging the
// env, with lock waits parked in virtual time.
func NewSimClient(prog *compile.Program, db *sqldb.DB, p *sim.Proc, env *Env) *SimClient {
	dbLocal := dbapi.NewLocal(db)
	dbLocal.Sess.WaitPoint = p.WaitPoint
	dbPeer := runtime.NewPeer(prog, pdg.DB, nil)
	dbPeer.Env = env
	dbSess := dbPeer.NewSession(dbLocal)

	appLocal := dbapi.NewLocal(db)
	appLocal.Sess.WaitPoint = p.WaitPoint
	appPeer := runtime.NewPeer(prog, pdg.App, nil)
	appPeer.Env = env
	appSess := appPeer.NewSession(appLocal)

	ctl := rpc.NewInProc(runtime.Handler(dbSess), 0) // latency charged via env
	return &SimClient{
		Client:  runtime.NewClient(appSess, ctl),
		AppConn: appLocal,
		DBConn:  dbLocal,
		DBPeer:  dbPeer,
	}
}
