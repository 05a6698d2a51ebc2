package main

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// profiledSystem loads the app's program and profiles it on the
// app's small database with a fixed-seed slice of its own mix, the
// way the repo's drivers do. The profile is an input of the
// partitioner, not of the measurement, so it does not follow the run
// seed: every run partitions the same graph.
func profiledSystem(a *app) (*pyxis.System, error) {
	sys, err := pyxis.Load(a.source)
	if err != nil {
		return nil, err
	}
	db, gen, calls := a.profile(rand.New(rand.NewSource(1)))
	err = sys.ProfileWorkload(db, func(ip *interp.Interp) error {
		return profileCalls(ip, sys.Prog, a, gen, calls)
	})
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// profileCalls runs the profiling slice of a's mix on the reference
// interpreter ip, whose hooks do the counting.
func profileCalls(ip *interp.Interp, prog *source.Program, a *app, gen generator, calls int) error {
	obj, err := ip.NewObject(a.class)
	if err != nil {
		return err
	}
	for i := 0; i < calls; i++ {
		c := gen.next()
		if _, err := ip.CallEntry(prog.Method(a.class, c.method), obj, c.args...); err != nil {
			return fmt.Errorf("profile %s.%s: %w", a.class, c.method, err)
		}
	}
	return nil
}

// deployment is the benchmark's wiring of one partition: two loopback
// TCP listeners (control transfers, database), one connection dialled
// to each and shared by all clients as mux sessions, every connection
// end wrapped in a wireConn.
type deployment struct {
	app     *app
	part    *pyxis.Partition
	db      *sqldb.DB
	appPeer *runtime.Peer
	dbPeer  *runtime.Peer

	wire  wireCounters
	delay *atomic.Int64 // nil on a LAN deployment
	hub   *traceHub     // nil on an untraced deployment
	ctl   *link
	dbl   *link

	clients []*client
}

// deploy wires part to db. delayed gives every connection end a delay
// pump (setRTT then chooses the delay, initially none); traced installs
// the span wrappers.
func deploy(a *app, part *pyxis.Partition, db *sqldb.DB, delayed, traced bool) (*deployment, error) {
	d := &deployment{
		app:     a,
		part:    part,
		db:      db,
		appPeer: runtime.NewPeer(part.Compiled, pdg.App, nil),
		dbPeer:  runtime.NewPeer(part.Compiled, pdg.DB, nil),
	}
	if delayed {
		d.delay = new(atomic.Int64)
	}
	ctlHandlers := func() rpc.SessionHandlers {
		return runtime.NewSessionManager(d.dbPeer, func() dbapi.Conn { return dbapi.NewLocal(db) })
	}
	dbHandlers := func() rpc.SessionHandlers { return dbapi.MuxHandlers(db) }
	if traced {
		d.hub = newTraceHub()
		ctlHandlers = func() rpc.SessionHandlers {
			mgr := runtime.NewSessionManager(d.dbPeer, func() dbapi.Conn { return d.hub.localConn(db) })
			return &tracedHandlers{inner: mgr, hub: d.hub, port: portCtl, name: spRuntimeDB}
		}
		dbHandlers = func() rpc.SessionHandlers {
			return &tracedHandlers{inner: dbapi.MuxHandlers(db), hub: d.hub, port: portDB, name: spDBAPIServer}
		}
	}
	var err error
	if d.ctl, err = openLink(&d.wire, d.delay, ctlHandlers); err != nil {
		return nil, err
	}
	if d.dbl, err = openLink(&d.wire, d.delay, dbHandlers); err != nil {
		d.ctl.close()
		return nil, err
	}
	return d, nil
}

// link is one listening port with the single connection dialled to
// it, both ends wrapped in wireConns.
type link struct {
	lis     net.Listener
	mux     *rpc.MuxClient
	serving sync.WaitGroup
}

// openLink listens on a loopback port, serves every accepted
// connection as a mux server with its own handlers, and dials the
// port once.
func openLink(ctr *wireCounters, delay *atomic.Int64, handlers func() rpc.SessionHandlers) (*link, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &link{lis: lis}
	l.serving.Add(1)
	go func() {
		defer l.serving.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			wc := newWireConn(conn, ctr, delay)
			l.serving.Add(1)
			go func() {
				defer l.serving.Done()
				defer wc.Close()
				rpc.ServeMuxConn(wc, handlers())
			}()
		}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		l.close()
		return nil, err
	}
	l.mux = rpc.NewMuxClient(newWireConn(conn, ctr, delay))
	return l, nil
}

// close closes the dialled connection and the listener and waits for
// the serving goroutines, which end when their connection does.
func (l *link) close() {
	if l.mux != nil {
		_ = l.mux.Close()
	}
	_ = l.lis.Close()
	l.serving.Wait()
}

// setRTT sets the injected round-trip time: each direction of each
// connection delays by half of it.
func (d *deployment) setRTT(rtt time.Duration) {
	if d.delay != nil {
		d.delay.Store(int64(rtt / 2))
	}
}

// close stops every client, connection and listener of the deployment
// and waits for the serving goroutines. It may be called twice.
func (d *deployment) close() {
	for _, c := range d.clients {
		_ = c.rc.Close() // the session close frame may race the connection close
		c.tr.release()
	}
	d.clients = nil
	d.ctl.close()
	d.dbl.close()
}

// client is one closed-loop load generator: a goroutine owning one
// runtime.Client, which sends its next transaction only after the
// previous one returned.
type client struct {
	rc  *runtime.Client
	dbc *dbapi.Client
	oid val.OID
	gen generator
	tr  *tracer // nil on an untraced deployment
	// backoff spaces deadlock retries. It is seeded by the client's
	// position, not the run's seed: the clients only have to differ.
	backoff *rand.Rand

	// Filled by run, reset by the caller between phases.
	latMs     [numClasses][]float64
	attempted int
	failed    int
	retries   int
	firstErr  error
}

// newClient opens one session on each port and constructs the app's
// object through them. gen must be seeded by the caller.
func (d *deployment) newClient(gen generator) (*client, error) {
	ctlSess, dbSess := d.ctl.mux.Session(), d.dbl.mux.Session()
	c := &client{gen: gen, backoff: rand.New(rand.NewSource(int64(len(d.clients))))}
	var ctl, dbt rpc.Transport = ctlSess, dbSess
	if d.hub != nil {
		tr, err := newTracer(time.Now(), tracerCap)
		if err != nil {
			return nil, err
		}
		c.tr = tr
		d.hub.register(portCtl, ctlSess.ID(), tr)
		d.hub.register(portDB, dbSess.ID(), tr)
		ctl = &tracedTransport{inner: ctlSess, tr: tr, name: spRPCCtl}
		dbt = &tracedTransport{inner: dbSess, tr: tr, name: spRPCDB}
	}
	c.dbc = dbapi.NewClient(dbt)
	var conn dbapi.Conn = c.dbc
	if c.tr != nil {
		conn = &tracedConn{inner: c.dbc, tr: c.tr, name: spDBAPIClient}
	}
	c.rc = runtime.NewClient(d.appPeer.NewSession(conn), ctl)
	oid, err := c.rc.NewObject(d.app.class)
	if err != nil {
		_ = c.rc.Close()
		c.tr.release()
		return nil, fmt.Errorf("construct %s: %w", d.app.class, err)
	}
	c.oid = oid
	d.clients = append(d.clients, c)
	return c, nil
}

// maxRetries bounds deadlock-victim retries of one transaction, as the
// repo's own drivers do: every victim abort means another transaction
// progressed, so retries converge, and the bound catches a livelocked
// engine.
const maxRetries = 50

// isDeadlock matches a deadlock abort whether it surfaces as the sqldb
// sentinel over the database wire or as remote error text inside a
// control transfer, where the error chain does not survive.
func isDeadlock(err error) bool {
	return strings.Contains(err.Error(), "deadlock")
}

// retryStep bounds the pause before the n-th retry of a deadlock victim
// at n steps.
const retryStep = 200 * time.Microsecond

// exec runs one transaction to completion, retrying deadlock victims
// after a random, growing pause. Without it two victims that retry at
// once over a 2 ms round trip collide again in step, each the other's
// victim in turn, and on one P, where nothing else disturbs their
// timing, past any bound on retries.
func (c *client) exec(tx call) (val.Value, int, error) {
	for retries := 0; ; retries++ {
		v, err := c.rc.CallEntry(tx.qname, c.oid, tx.args...)
		if err == nil {
			return v, retries, nil
		}
		if !isDeadlock(err) || retries == maxRetries {
			return val.Value{}, retries, fmt.Errorf("%s: %w", tx.qname, err)
		}
		time.Sleep(time.Duration(c.backoff.Int63n(int64(retries+1) * int64(retryStep))))
	}
}

// run issues transactions back to back until deadline, timing each
// around exec. It stops at the first failed transaction: the workloads
// are chosen so that none fails, and the run is rejected when one does.
func (c *client) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		tx := c.gen.next()
		t0 := time.Now()
		root := c.tr.beginTxn(tx.class)
		_, retries, err := c.exec(tx)
		c.tr.end(root)
		c.attempted++
		c.retries += retries
		if err != nil {
			c.failed++
			c.firstErr = err
			break
		}
		c.latMs[tx.class] = append(c.latMs[tx.class], float64(time.Since(t0))/1e6)
	}
}

func (c *client) reset() {
	for k := range c.latMs {
		c.latMs[k] = c.latMs[k][:0]
	}
	c.attempted, c.failed, c.retries, c.firstErr = 0, 0, 0, nil
}

// runClients runs every client for d and waits for all of them.
func (d *deployment) runClients(window time.Duration) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		c.reset()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

// differentialTxns is the length of the single-client sequence that
// set-up replays through both the deployment and the reference
// interpreter.
const differentialTxns = 200

// differentialCheck runs a seeded transaction sequence through a new
// client of d and through the reference interpreter on ref, an
// identically loaded database, and compares every returned value and
// the final database states.
func differentialCheck(d *deployment, sys *pyxis.System, ref *sqldb.DB, seed int64) error {
	a := d.app
	c, err := d.newClient(a.newGen(rand.New(rand.NewSource(seed))))
	if err != nil {
		return err
	}
	refGen := a.newGen(rand.New(rand.NewSource(seed)))
	ip := interp.New(sys.Prog, dbapi.NewLocal(ref))
	obj, err := ip.NewObject(a.class)
	if err != nil {
		return fmt.Errorf("reference: construct %s: %w", a.class, err)
	}
	for i := 0; i < differentialTxns; i++ {
		tx, refTx := c.gen.next(), refGen.next()
		want, err := ip.CallEntry(sys.Prog.Method(a.class, refTx.method), obj, refTx.args...)
		if err != nil {
			return fmt.Errorf("reference: txn %d %s: %w", i, refTx.method, err)
		}
		got, _, err := c.exec(tx)
		if err != nil {
			return fmt.Errorf("deployment: txn %d: %w", i, err)
		}
		if got != want {
			return fmt.Errorf("txn %d %s%v: deployment returned %v, reference interpreter %v", i, tx.method, tx.args, got, want)
		}
	}
	if !reflect.DeepEqual(d.db.Snapshot(), ref.Snapshot()) {
		return fmt.Errorf("database differs from the reference interpreter's after %d transactions", differentialTxns)
	}
	// Retire the checking client: the timed clients start from their
	// own sessions.
	d.clients = d.clients[:len(d.clients)-1]
	return c.rc.Close()
}

// newOrderRoundTrips deploys part in process and counts the round
// trips (control transfers plus APP-side database calls) of one
// five-line NewOrder.
func newOrderRoundTrips(part *pyxis.Partition, db *sqldb.DB) (int64, error) {
	dep := part.Deploy(db, runtime.Options{})
	defer dep.Client.Close()
	oid, err := dep.Client.NewObject(tpccApp.class)
	if err != nil {
		return 0, err
	}
	ctl0, db0 := dep.WireStats()
	_, err = dep.Client.CallEntry("TPCC.newOrder", oid, probeNewOrderArgs(0)...)
	if err != nil {
		return 0, err
	}
	ctl1, db1 := dep.WireStats()
	return ctl1.Calls - ctl0.Calls + db1.Calls - db0.Calls, nil
}

// probeNewOrderArgs are the arguments of the i-th single-client probe
// NewOrder: five lines, committed, districts taken in turn.
func probeNewOrderArgs(i int) []val.Value {
	return []val.Value{
		val.IntV(int64(i%tpccCfg.Warehouses + 1)), val.IntV(int64(i/tpccCfg.Warehouses%tpccCfg.DistrictsPerW + 1)),
		val.IntV(int64(i%tpccCfg.CustomersPerD + 1)), val.IntV(5), val.IntV(int64(i * 7919 % 99991)),
		val.IntV(int64(tpccCfg.Items)), val.BoolV(false),
	}
}

// checkRoundTripOrder asserts the paper's ordering on TPC-C: a
// NewOrder costs the most round trips with every statement on the
// application server, fewer at a middle budget, and exactly one when
// the whole transaction runs on the database server.
func checkRoundTripOrder(sys *pyxis.System) error {
	db := tpccApp.load()
	var rts [3]int64
	for i, budget := range []float64{0, 0.5, 1} {
		part, err := sys.PartitionAt(budget)
		if err != nil {
			return fmt.Errorf("partition at budget %.1f: %w", budget, err)
		}
		rt, err := newOrderRoundTrips(part, db)
		if err != nil {
			return fmt.Errorf("NewOrder at budget %.1f: %w", budget, err)
		}
		rts[i] = rt
	}
	if !(rts[0] > rts[1] && rts[1] > rts[2] && rts[2] == 1) {
		return fmt.Errorf("NewOrder round trips at budgets 0/0.5/1 are %d/%d/%d, want strictly decreasing to 1", rts[0], rts[1], rts[2])
	}
	return nil
}
