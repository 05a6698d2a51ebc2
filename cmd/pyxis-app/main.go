// Command pyxis-app runs the application side of a real two-process
// Pyxis deployment: it connects to one pyxis-dbserver's database and
// control-transfer ports over TCP, rebuilds its half of the partition
// that server serves, and invokes an entry method with the given scalar
// arguments.
//
// With -clients N it drives N concurrent sessions, each its own
// logical thread of control with its own object, multiplexed over a
// pool of -pool TCP connections per port (default 1 — the classic
// single-connection wire). With -pool > 1 each new session lands on
// the least-loaded connection and stays pinned there, removing the
// single connection's head-of-line at high client counts.
//
// A pyxis-dbserver running -max-sessions decides admission once per
// session, when a client opens: a refused open surfaces as
// rpc.ErrOverloaded and is retried with jittered backoff, and an
// admitted client's calls are never shed.
//
// One pyxis-app dials one database server, as in the paper's testbed,
// and every client sends the same -args and -callargs.
//
// Usage (after starting pyxis-dbserver):
//
//	pyxis-app -db localhost:7001 -ctl localhost:7002 \
//	    -new Order -args 7 -call Order.placeOrder -callargs 3,0.9 \
//	    -clients 8 -n 100 [-pool 4]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pyxis/internal/deploy"
	"pyxis/internal/runtime"
	"pyxis/internal/val"
)

// openTimeout bounds how long one session keeps retrying an Open a
// gated server refused. Capacity frees as admitted sessions finish, so
// the workload, not the timeout, bounds the wait.
const openTimeout = time.Minute

func main() {
	var (
		dbAddr   = flag.String("db", "localhost:7001", "database server wire address")
		ctlAddr  = flag.String("ctl", "localhost:7002", "control-transfer server address")
		newClass = flag.String("new", "", "class to instantiate (required)")
		ctorArgs = flag.String("args", "", "comma-separated constructor arguments")
		call     = flag.String("call", "", "entry method Class.method to invoke (required)")
		callArgs = flag.String("callargs", "", "comma-separated entry arguments")
		clients  = flag.Int("clients", 1, "number of concurrent client sessions")
		repeat   = flag.Int("n", 1, "entry invocations per client")
		poolN    = flag.Int("pool", 1, "mux connections per port (>= 1); sessions stripe onto the least-loaded one")
	)
	flag.Parse()
	if *newClass == "" || *call == "" || *poolN < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *clients < 1 || *repeat < 1 {
		fatal(fmt.Errorf("-clients and -n must be >= 1"))
	}

	// A pool of -pool multiplexed connections to each port; each client
	// session is pinned to whichever pooled connection was least loaded
	// when it was opened.
	app, err := deploy.Dial(*dbAddr, *ctlAddr, *poolN, os.Stdout)
	if err != nil {
		fatal(err)
	}
	defer app.Close()
	if app.Partition == nil {
		fatal(deploy.ErrNotServed)
	}
	fmt.Printf("pyxis-app: partition {%s}\n", app.Partition.Describe())
	ctorVals := parseArgs(*ctorArgs)
	callVals := parseArgs(*callArgs)

	type result struct {
		ret   val.Value
		lats  []float64 // milliseconds
		sheds int64     // ErrOverloaded replies to Open absorbed with backoff
		err   error
	}
	results := make([]result, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Open absorbs admission sheds from a gated server with
			// jittered backoff (a refused Open left no server state behind;
			// the retry simply re-attempts admission).
			var client *deploy.Client
			sheds, err := runtime.RetryOverloaded(openTimeout, func() error {
				var oerr error
				client, oerr = app.Open(*newClass, ctorVals...)
				return oerr
			})
			results[i].sheds = sheds
			if err != nil {
				results[i].err = err
				return
			}
			defer client.Close()
			for k := 0; k < *repeat; k++ {
				t0 := time.Now()
				ret, err := client.Call(*call, callVals...)
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
		mean, p95, worst := summarize(all)
		fmt.Printf("pyxis-app: latency mean=%.3fms p95=%.3fms max=%.3fms\n", mean, p95, worst)
	}
	ctl := app.Ctl.Stats()
	db := app.DB.Stats()
	fmt.Printf("pyxis-app: control transfers=%d (%d B), app-side db round trips=%d (%d B) pool=%d conns\n",
		ctl.Calls, ctl.BytesSent+ctl.BytesRecv, db.Calls, db.BytesSent+db.BytesRecv, *poolN)
	var sheds int64
	for _, r := range results {
		sheds += r.sheds
	}
	if sheds > 0 {
		fmt.Printf("pyxis-app: %d overload sheds absorbed with jittered backoff\n", sheds)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// summarize sorts a latency sample in milliseconds and returns its
// mean, nearest-rank 95th percentile and maximum (zeros when empty).
func summarize(lats []float64) (mean, p95, worst float64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(lats)
	for _, v := range lats {
		mean += v
	}
	n := len(lats)
	return mean / float64(n), lats[int(math.Ceil(0.95*float64(n)))-1], lats[n-1]
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
