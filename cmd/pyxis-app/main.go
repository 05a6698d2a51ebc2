// Command pyxis-app runs the application side of a real two-process
// Pyxis deployment: it connects to pyxis-dbserver's database and
// control-transfer ports over TCP, rebuilds its half of the partition
// the servers serve (every server must serve the same one, or it exits
// with deploy.ErrProgramMismatch), and invokes an entry method with the
// given scalar arguments.
//
// With -clients N it drives N concurrent sessions, each its own
// logical thread of control with its own object, multiplexed over a
// pool of -pool TCP connections per port (default 1 — the classic
// single-connection wire). With -pool > 1 each new session lands on
// the least-loaded connection and stays pinned there, removing the
// single connection's head-of-line at high client counts.
//
// With -dynamic (against a pyxis-dbserver running -dynamic, which
// serves a high- and a low-budget partition) each session holds a
// deployment pair and routes every call off its shard's switcher EWMA,
// which is fed by the DB load reports piggy-backed on every reply
// (reports from EVERY pooled connection of a shard feed that shard's
// EWMA); server sheds surface as rpc.ErrOverloaded and are retried with
// jittered backoff — including admission refusals from a pyxis-dbserver
// running -max-sessions or -admit-high.
//
// Against a SHARDED DB tier, -db and -ctl take comma-separated address
// lists of equal length — entry i of each list is shard i, typically a
// pyxis-dbserver started with -shard i/N. Each client session picks
// its home shard by hashing its client index through runtime.ShardMap
// and opens every session (including the -dynamic low-budget pair) on
// that shard; load EWMAs are kept per shard, so one saturated shard
// switches its own sessions low without dragging its siblings.
//
// Usage (after starting pyxis-dbserver):
//
//	pyxis-app -db localhost:7001 -ctl localhost:7002 \
//	    -new Order -args 7 -call Order.placeOrder -callargs 3,0.9 \
//	    -clients 8 -n 100 [-pool 4] [-dynamic]
//
// Sharded tier (one pyxis-dbserver per shard):
//
//	pyxis-app ... -db host1:7001,host2:7001 -ctl host1:7002,host2:7002
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pyxis/internal/bench"
	"pyxis/internal/deploy"
	"pyxis/internal/runtime"
	"pyxis/internal/val"
)

func main() {
	var (
		dbAddr   = flag.String("db", "localhost:7001", "database server wire address(es); comma-separated, one per shard")
		ctlAddr  = flag.String("ctl", "localhost:7002", "control-transfer server address(es); comma-separated, one per shard")
		newClass = flag.String("new", "", "class to instantiate (required)")
		ctorArgs = flag.String("args", "", "comma-separated constructor arguments")
		call     = flag.String("call", "", "entry method Class.method to invoke (required)")
		callArgs = flag.String("callargs", "", "comma-separated entry arguments")
		clients  = flag.Int("clients", 1, "number of concurrent client sessions")
		repeat   = flag.Int("n", 1, "entry invocations per client")
		poolN    = flag.Int("pool", 1, "mux connections per port; sessions stripe onto the least-loaded one")
		dynamic  = flag.Bool("dynamic", false,
			"route each session between the servers' high- and low-budget partitions off the DB's piggy-backed load reports (pyxis-dbserver must run -dynamic)")
		threshold  = flag.Float64("threshold", 40, "switcher load threshold percent")
		hysteresis = flag.Float64("hysteresis", 0, "switcher dead-band half-width percent")
	)
	flag.Parse()
	if *newClass == "" || *call == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *clients < 1 || *repeat < 1 {
		fatal(fmt.Errorf("-clients and -n must be >= 1"))
	}

	// One shard per -db/-ctl address pair (a single address is the
	// classic unsharded tier), a pool of -pool multiplexed connections to
	// each. No schema-aware partition key at this layer: each client
	// session hashes its index to a home shard and opens everything
	// there, each session pinned to whichever pooled connection was least
	// loaded when it was opened. With -dynamic, every reply from a shard
	// carries its load sample, and that shard's switcher folds them into
	// the EWMA each of its sessions consults before its next call —
	// shard i's saturation never routes shard j's sessions.
	dbAddrs := splitAddrs(*dbAddr)
	shards := len(dbAddrs)
	router := runtime.NewShardedClient(runtime.ShardMap{Shards: shards})
	for i := 0; i < shards; i++ {
		sw := router.Switcher(i)
		sw.Threshold = *threshold
		sw.Hysteresis = *hysteresis
	}
	app, err := deploy.Dial(router, dbAddrs, splitAddrs(*ctlAddr), *poolN, os.Stdout)
	if err != nil {
		fatal(err)
	}
	defer app.Close()
	if app.High == nil || (*dynamic && app.Low == nil) {
		fatal(fmt.Errorf("%w (-dynamic needs pyxis-dbserver -dynamic)", deploy.ErrNotServed))
	}
	fmt.Printf("pyxis-app: partition {%s}\n", app.High.Describe())
	if *dynamic {
		fmt.Printf("pyxis-app: low partition {%s}\n", app.Low.Describe())
	}
	ctorVals := parseArgs(*ctorArgs)
	callVals := parseArgs(*callArgs)

	type result struct {
		ret   val.Value
		lats  []float64 // milliseconds
		sheds int64     // ErrOverloaded replies absorbed with backoff
		err   error
	}
	results := make([]result, *clients)
	dyns := make([]*runtime.DynamicClient, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shard := router.HomeShard(int64(i))
			// open opens a session of the high (or low) program, absorbing
			// admission sheds from a gated server with jittered backoff (a
			// refused session left no server state behind; the retry simply
			// re-attempts admission).
			open := func(low bool) (*deploy.Client, error) {
				var c *deploy.Client
				sheds, err := runtime.RetryOverloaded(func() error {
					var oerr error
					c, oerr = app.Open(shard, low, *newClass, ctorVals...)
					return oerr
				})
				results[i].sheds += sheds
				return c, err
			}
			client, err := open(false)
			if err != nil {
				results[i].err = err
				return
			}

			// callOnce invokes the entry on the static client (with its
			// own jittered shed backoff), or routes through this
			// session's DynamicClient (which re-picks per attempt and
			// backs off on overload sheds internally).
			var callOnce func() (val.Value, error)
			if *dynamic {
				low, err := open(true)
				if err != nil {
					client.Close()
					results[i].err = err
					return
				}
				dyn := &runtime.DynamicClient{High: client.Client, Low: low.Client, Switcher: router.Switcher(shard)}
				dyns[i] = dyn
				defer dyn.Close()
				callOnce = func() (val.Value, error) {
					// Entry-call sheds are tallied by the DynamicClient
					// itself; results[i].sheds keeps only the open-time
					// admission sheds.
					r, err := dyn.CallEntry(*call, client.OID, low.OID, callVals...)
					return r.Val, err
				}
			} else {
				defer client.Close()
				callOnce = func() (val.Value, error) {
					var ret val.Value
					sheds, err := runtime.RetryOverloaded(func() error {
						var cerr error
						ret, cerr = client.CallEntry(*call, client.OID, callVals...)
						return cerr
					})
					results[i].sheds += sheds
					return ret, err
				}
			}
			for k := 0; k < *repeat; k++ {
				t0 := time.Now()
				ret, err := callOnce()
				if err != nil {
					results[i].err = err
					return
				}
				results[i].ret = ret
				results[i].lats = append(results[i].lats, float64(time.Since(t0).Microseconds())/1e3)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := 0
	var all []float64
	for i, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pyxis-app: session %d: %v\n", i, r.err)
			continue
		}
		all = append(all, r.lats...)
		if *clients == 1 {
			fmt.Printf("pyxis-app: %s returned %s\n", *call, r.ret)
		}
	}
	if *clients > 1 || *repeat > 1 {
		fmt.Printf("pyxis-app: %d sessions x %d calls in %v (%.1f txn/s)\n",
			*clients, *repeat, elapsed.Round(time.Millisecond),
			float64(len(all))/elapsed.Seconds())
		st := bench.Summarize(all)
		fmt.Printf("pyxis-app: latency mean=%.3fms p95=%.3fms max=%.3fms\n",
			st.MeanMs, st.P95Ms, st.MaxMs)
	}
	ctl := app.Ctl.Stats()
	db := app.DB.Stats()
	fmt.Printf("pyxis-app: control transfers=%d (%d B), app-side db round trips=%d (%d B) shards=%d pool=%d conns/shard\n",
		ctl.Calls, ctl.BytesSent+ctl.BytesRecv, db.Calls, db.BytesSent+db.BytesRecv, shards, *poolN)
	var openSheds int64
	for i := range results {
		openSheds += results[i].sheds
	}
	if *dynamic {
		var low, high, sheds int64
		for _, d := range dyns {
			if d == nil {
				continue
			}
			l, h := d.Picks()
			low, high, sheds = low+l, high+h, sheds+d.Sheds()
		}
		share := 0.0
		if low+high > 0 {
			share = 100 * float64(low) / float64(low+high)
		}
		ewmas := make([]string, shards)
		for i := 0; i < shards; i++ {
			ewmas[i] = fmt.Sprintf("%.1f%%", router.Load(i))
		}
		fmt.Printf("pyxis-app: dynamic mix low=%d high=%d (%.0f%% low) sheds=%d (+%d at open) ewma/shard=[%s] load-reports=%d\n",
			low, high, share, sheds, openSheds, strings.Join(ewmas, " "),
			app.Ctl.LoadReports()+app.DB.LoadReports())
	} else if openSheds > 0 {
		fmt.Printf("pyxis-app: %d overload sheds absorbed with jittered backoff\n", openSheds)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// splitAddrs splits a comma-separated shard address list, trimming
// whitespace and dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseArgs converts "7,0.9,true,hi" into scalar values.
func parseArgs(s string) []val.Value {
	if s == "" {
		return nil
	}
	var out []val.Value
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if i, err := strconv.ParseInt(part, 10, 64); err == nil {
			out = append(out, val.IntV(i))
		} else if f, err := strconv.ParseFloat(part, 64); err == nil {
			out = append(out, val.DoubleV(f))
		} else if b, err := strconv.ParseBool(part); err == nil {
			out = append(out, val.BoolV(b))
		} else {
			out = append(out, val.StrV(part))
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pyxis-app:", err)
	os.Exit(1)
}
