package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"pyxis/internal/analysis"
	"pyxis/internal/compile"
	"pyxis/internal/core"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/pyxil"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/source"
	"pyxis/internal/val"
	"pyxis/internal/verify"
)

// A probe drives one layer alone through its public interface, on one
// goroutine with nothing else running, so its number prices that layer
// and no other. Probes do not depend on the workload or the seed.

// probeBatches is how many batches a probe's iterations are split
// into; the probe reports the median of the batches' means, which a
// garbage collection or a scheduling hiccup in one batch cannot move.
const probeBatches = 10

// timeOp runs op n times and returns the median batch mean in
// nanoseconds per call and the heap allocations per call.
func timeOp(n int, op func(i int) error) (nsPerOp, allocsPerOp float64, err error) {
	per := n / probeBatches
	if per < 1 {
		per = 1
	}
	for i := 0; i < per; i++ { // warm caches, pools and prepared statements
		if err := op(i); err != nil {
			return 0, 0, err
		}
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	means := make([]float64, 0, probeBatches)
	i := per
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for k := 0; k < per; k++ {
			if err := op(i); err != nil {
				return 0, 0, err
			}
			i++
		}
		means = append(means, float64(time.Since(start))/float64(per))
	}
	goruntime.ReadMemStats(&after)
	return median(means), float64(after.Mallocs-before.Mallocs) / float64(per*probeBatches), nil
}

// probeEcho times a 64-byte echo MuxSession.Call over loopback TCP
// with rtt injected, and counts the connection writes per call on both
// ends.
func probeEcho(n int, rtt time.Duration) (us, writes, allocs float64, err error) {
	var ctr wireCounters
	var delay *atomic.Int64
	if rtt > 0 {
		delay = new(atomic.Int64)
		delay.Store(int64(rtt / 2))
	}
	echo := rpc.HandlerFactory(func(uint32) rpc.Handler {
		return func(req []byte) ([]byte, error) { return req, nil }
	})
	l, err := openLink(&ctr, delay, func() rpc.SessionHandlers { return echo })
	if err != nil {
		return 0, 0, 0, err
	}
	defer l.close()
	sess := l.mux.Session()
	payload := make([]byte, 64)
	calls := 0
	ns, allocs, err := timeOp(n, func(int) error {
		calls++
		_, err := sess.Call(payload)
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return ns / 1e3, float64(ctr.writes.Load()) / float64(calls), allocs, nil
}

// runProbes measures every probe metric. div divides the iteration
// counts.
func runProbes(div int) (map[string]float64, error) {
	out := map[string]float64{}
	n := func(full int) int { return full / div }

	// rpc.
	us, writes, allocs, err := probeEcho(n(5000), 0)
	if err != nil {
		return nil, fmt.Errorf("rpc echo: %w", err)
	}
	out["rpc.probe_echo_us"], out["rpc.probe_echo_writes"], out["rpc.probe_echo_allocs"] = us, writes, allocs
	if us, _, _, err = probeEcho(n(200), wanRTT); err != nil {
		return nil, fmt.Errorf("rpc echo with delay: %w", err)
	}
	out["rpc.rtt_observed_ms"] = us / 1e3

	// sqldb, on a loaded TPC-C database.
	db := tpccApp.load()
	sess := db.NewSession()
	wid := func(i int) val.Value { return val.IntV(int64(i%tpccCfg.Warehouses + 1)) }
	iid := func(i int) val.Value { return val.IntV(int64(i*7%tpccCfg.Items + 1)) }
	sel, err := sess.Prepare("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?")
	if err != nil {
		return nil, err
	}
	upd, err := sess.Prepare("UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?")
	if err != nil {
		return nil, err
	}
	ins, err := sess.Prepare("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)")
	if err != nil {
		return nil, err
	}
	doUpdate := func(i int) error {
		_, err := sess.ExecParsed(upd, val.IntV(int64(50+i%40)), val.IntV(1), wid(i), iid(i))
		return err
	}
	sqlProbes := []struct {
		name string
		n    int
		op   func(i int) error
	}{
		{"select", 20000, func(i int) error {
			_, err := sess.QueryParsed(sel, wid(i), iid(i))
			return err
		}},
		{"update", 20000, doUpdate},
		{"insert", 20000, func(i int) error {
			_, err := sess.ExecParsed(ins, val.IntV(1), val.IntV(1), val.IntV(int64(1_000_000+i)),
				val.IntV(1), iid(i), val.IntV(5), val.DoubleV(12.5))
			return err
		}},
		{"txn", 10000, func(i int) error {
			if err := sess.Begin(); err != nil {
				return err
			}
			if err := doUpdate(i); err != nil {
				return err
			}
			return sess.Commit()
		}},
	}
	for _, p := range sqlProbes {
		ns, allocs, err := timeOp(n(p.n), p.op)
		if err != nil {
			return nil, fmt.Errorf("sqldb %s: %w", p.name, err)
		}
		out["sqldb.probe_"+p.name+"_ns"] = ns
		if p.name != "txn" {
			out["sqldb.probe_"+p.name+"_allocs"] = allocs
		}
	}
	// A statement text the plan cache has never seen, so Prepare parses.
	texts := make([]string, n(5000)+n(5000)/probeBatches+1)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT w_tax FROM warehouse WHERE w_id = %d", 1_000_000+i)
	}
	ns, _, err := timeOp(n(5000), func(i int) error {
		_, err := sess.Prepare(texts[i])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sqldb parse: %w", err)
	}
	out["sqldb.probe_parse_ns"] = ns

	// The bestSellers query on a loaded TPC-W database.
	wsess := tpcwApp.load().NewSession()
	best, err := wsess.Prepare("SELECT i_id, i_title, i_total_sold FROM item ORDER BY i_total_sold DESC LIMIT 20")
	if err != nil {
		return nil, err
	}
	if ns, _, err = timeOp(n(500), func(int) error {
		_, err := wsess.QueryParsed(best)
		return err
	}); err != nil {
		return nil, fmt.Errorf("sqldb scan+sort: %w", err)
	}
	out["sqldb.probe_scan_sort_ns"] = ns

	// dbapi: the prepared point select through the op codec, with the
	// handler called in process instead of across a socket.
	conn := dbapi.NewClient(rpc.NewInProc(dbapi.SessionHandler(db.NewSession()), 0))
	if ns, _, err = timeOp(n(20000), func(i int) error {
		_, err := conn.QueryStmt(0, "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", wid(i), iid(i))
		return err
	}); err != nil {
		return nil, fmt.Errorf("dbapi query: %w", err)
	}
	out["dbapi.probe_query_us"] = ns / 1e3

	// runtime: a whole NewOrder placed on the database server, both
	// peers in this process and no socket between them.
	sys, err := profiledSystem(tpccApp)
	if err != nil {
		return nil, err
	}
	part, err := sys.PartitionAt(1)
	if err != nil {
		return nil, err
	}
	dep := part.Deploy(tpccApp.load(), runtime.Options{})
	defer dep.Client.Close()
	oid, err := dep.Client.NewObject(tpccApp.class)
	if err != nil {
		return nil, err
	}
	if ns, _, err = timeOp(n(3000), func(i int) error {
		_, err := dep.Client.CallEntry("TPCC.newOrder", oid, probeNewOrderArgs(i)...)
		return err
	}); err != nil {
		return nil, fmt.Errorf("runtime NewOrder: %w", err)
	}
	out["runtime.probe_neworder_us"] = ns / 1e3
	return out, nil
}

// offlineRepeats is how often each offline phase is timed; the
// reported time is the median.
const offlineRepeats = 20

// offlinePipeline times each phase of the offline pipeline on the
// workload's program by calling the phase's public function, and
// reports the counts that decide how many round trips the compiled
// program makes.
func offlinePipeline(w *workload, div int) (map[string]float64, error) {
	a := w.app
	reps := offlineRepeats / div
	if reps < 1 {
		reps = 1
	}
	times := map[string][]float64{}
	timed := func(name string, f func()) {
		start := time.Now()
		f()
		times[name] = append(times[name], float64(time.Since(start))/1e6)
	}
	out := map[string]float64{}
	for r := 0; r < reps; r++ {
		var prog *source.Program
		var err error
		timed("source.load_ms", func() { prog, err = source.Load(a.source) })
		if err != nil {
			return nil, err
		}
		var res *analysis.Result
		timed("analysis.run_ms", func() { res = analysis.Run(prog) })

		prof := profile.New()
		pdb, gen, calls := a.profile(rand.New(rand.NewSource(1)))
		ip := interp.New(prog, dbapi.NewLocal(pdb))
		ip.Hooks = prof.Hooks()
		timed("profile.run_ms", func() { err = profileCalls(ip, prog, a, gen, calls) })
		if err != nil {
			return nil, err
		}

		var g *pdg.Graph
		timed("pdg.build_ms", func() { g = pdg.Build(res, prof, pdg.Options{}) })
		var place pdg.Placement
		var rep *core.Report
		timed("solver.solve_ms", func() { place, rep, err = core.New(g).Partition(core.TotalLoad(g) * w.budget) })
		if err != nil {
			return nil, fmt.Errorf("solve: %w", err)
		}
		var px *pyxil.Program
		timed("pyxil.generate_ms", func() { px = pyxil.Generate(res, g, place, pyxil.Options{}) })
		var cp *compile.Program
		// The verifier is timed on its own below.
		timed("compile.compile_ms", func() { cp, err = compile.Compile(px, compile.NoVerify()) })
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		var fs compile.FuseStats
		timed("compile.fuse_ms", func() { fs = compile.Fuse(cp) })
		timed("verify.program_ms", func() { err = verify.Program(cp) })
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		counts := map[string]float64{
			"pdg.nodes":              float64(len(g.Nodes)),
			"pdg.edges":              float64(len(g.Edges)),
			"solver.db_stmts":        float64(rep.DBNodes),
			"pyxil.static_transfers": float64(pyxil.ControlTransfers(prog, place)),
			"compile.blocks_raw":     float64(fs.BlocksBefore),
			"compile.blocks_fused":   float64(fs.BlocksAfter),
		}
		for name, v := range counts {
			if prev, seen := out[name]; seen && prev != v {
				return nil, fmt.Errorf("%s is %v on repeat %d and was %v before: the pipeline is not deterministic", name, v, r, prev)
			}
			out[name] = v
		}
	}
	for name, ts := range times {
		out[name] = median(ts)
	}
	return out, nil
}
