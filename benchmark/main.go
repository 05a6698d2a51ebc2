// Command benchmark is the repository's wall-clock benchmark: four
// placement × round-trip-time workloads of the partitioned TPC-C and
// TPC-W programs, driven in a closed loop over loopback TCP, with ten
// end-to-end metrics from an untraced window and per-layer metrics
// from a traced window, layer probes and the offline pipeline. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// runResult is the file -out writes and -compare reads.
type runResult struct {
	Quick      bool              `json:"quick"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Clients    int               `json:"clients"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Workloads  []*workloadResult `json:"workloads"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "workload seed: equal seeds give equal transaction streams")
		seconds      = flag.Float64("seconds", 27, "length of the measured window")
		trace        = flag.Int("trace", -1, "with -workload NAME: 0 reports the end-to-end metrics, 1 the per-layer metrics (half the window untraced, half traced)")
		out          = flag.String("out", "", "with -workload all: write the full result to this file")
		spans        = flag.String("spans", "", "write the traced window's spans to this CSV file")
		quick        = flag.Bool("quick", false, "developer smoke: 2 s windows, probes at a tenth; the result is marked quick and -compare refuses it")
		compare      = flag.Bool("compare", false, "compare two -out files: -compare base.json new.json")
		spec         = flag.String("spec", "BENCHMARK.json", "with -compare: the file holding the end-to-end metrics' bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare base.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	goruntime.GOMAXPROCS(procs)
	if *quick {
		*seconds = 2
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	window := time.Duration(*seconds * float64(time.Second))
	opts := runOpts{seed: *seed, probeDiv: 1, spansPath: *spans}
	if *quick {
		opts.probeDiv = 10
	}

	if *workloadName != "all" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal("unknown workload %q; have %s", *workloadName, strings.Join(workloadNames(), ", "))
		}
		// One invocation reports one metric family, as BENCHMARK.json's
		// driver asks for them.
		opts.setups, opts.window = setupRepeats, window
		if *trace == 1 {
			opts.setups, opts.window, opts.traced = 1, window/2, true
		}
		opts.warmup = warmupFor(opts.window)
		res, err := runWorkload(w, opts)
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		for _, p := range res.Problems {
			progress("%s: %s", w.Name, p)
		}
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	opts.setups, opts.window, opts.traced = setupRepeats, window, true
	if *quick {
		opts.setups = 1
	}
	opts.warmup = warmupFor(window)
	result := runResult{
		Quick: *quick, Seed: *seed, Seconds: *seconds, Clients: numClients,
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(),
	}
	fmt.Printf("pyxis benchmark: seed %d, %d clients (closed loop), %v windows, nproc %d, GOMAXPROCS %d, %s\n",
		result.Seed, result.Clients, window, result.NumCPU, result.GOMAXPROCS, result.GoVersion)
	ok := true
	for _, w := range workloads {
		res, err := runWorkload(w, opts)
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		printWorkload(w, res)
		ok = ok && res.Correct
		result.Workloads = append(result.Workloads, res)
	}
	if !ok {
		fatal("a correctness check failed; no result file written")
	}
	if *out != "" {
		data, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
}

// procs is the GOMAXPROCS every measurement runs at. With the clients
// and their server goroutines on one P, handing a frame from one
// goroutine to the next is a run-queue operation; on two, it is a futex
// wake-up of a halted virtual CPU dozens of times per transaction, whose
// cost the host sets, not the program (tpcc-jdbc-lan is a tenth faster
// on one P than on two, and its runs spread a third less). It also
// leaves the host's other CPU to the kernel and whatever else runs
// beside the benchmark.
const procs = 1

// setupRepeats is how many times a run sets a workload up, so
// that setup_s is a median and not one sample (a -quick run sets up once).
const setupRepeats = 5

// warmupFor is the untimed run before a window: 2 s, or half the
// window when that is shorter.
func warmupFor(window time.Duration) time.Duration {
	if w := window / 2; w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// printWorkload prints every metric of one workload by name with its
// unit.
func printWorkload(w *workload, r *workloadResult) {
	fmt.Printf("\n== %s — %s\n", w.Name, w.Why)
	fmt.Printf("   attempted %d, failed %d, window %.2f s", r.Attempted, r.Failed, r.WindowS)
	for k := txnClass(0); k < numClasses; k++ {
		l := r.Latency[k.String()]
		fmt.Printf("; %s n=%d", k, l.N)
		if l.HighestPct > 0 {
			fmt.Printf(", highest percentile with %d samples beyond it p%g = %.3f ms", minBeyond, l.HighestPct, l.HighestMs)
		}
	}
	fmt.Println()
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	fmt.Println("   end to end:")
	for _, m := range endToEndMetrics {
		v := r.EndToEnd[m.Name]
		fmt.Printf("     %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Println("   per layer:")
	for _, m := range perLayerMetrics {
		v := r.PerLayer[m.Name]
		if why, na := r.NotApplicable[m.Name]; na {
			fmt.Printf("     %-32s %14s    (%s)\n", m.Name, "n/a", why)
			continue
		}
		fmt.Printf("     %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Println("   share of traced transaction time, by self time:")
	names := make([]string, 0, len(r.SelfShare))
	for name := range r.SelfShare {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return r.SelfShare[names[i]] > r.SelfShare[names[j]] })
	for _, name := range names {
		fmt.Printf("     %-32s %13.1f %%\n", name, r.SelfShare[name])
	}
}
