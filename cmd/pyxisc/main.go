// Command pyxisc is the Pyxis partitioning compiler CLI: it loads a
// PyxJ source file, profiles it against a workload script, solves the
// placement problem at one or more budgets, and prints the requested
// artifacts (PyxIL, partition graph DOT, execution blocks, reports).
//
// Profiles normally come from running the application; for CLI use it
// takes the synthetic profile pyxis-dbserver serves (ProfileSynthetic:
// every entry method called once with zero arguments) against an empty
// database unless -schema provides DDL/DML to preload.
//
// Usage:
//
//	pyxisc -src order.pyxj -budget 0.5 -pyxil
//	pyxisc -src order.pyxj -dot > graph.dot
//	pyxisc -src order.pyxj -budget 0,0.5,1 -report
//	pyxisc -src order.pyxj -budget 0,0.5,1 -verify
//
// -verify runs the independent program verifier (internal/verify)
// over each budget's compiled blocks, pre- and post-fusion, printing
// every diagnostic with the offending block disassembled; any finding
// exits nonzero. CI runs it over every example program as a blocking
// step.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pyxis"
	"pyxis/internal/compile"
	"pyxis/internal/sqldb"
	"pyxis/internal/verify"
)

func main() {
	var (
		srcPath  = flag.String("src", "", "PyxJ source file (required)")
		budgets  = flag.String("budget", "1.0", "comma-separated budget fractions of total load")
		schema   = flag.String("schema", "", "file with ';'-separated SQL statements to preload the profiling database")
		showPyx  = flag.Bool("pyxil", false, "print the PyxIL program per budget")
		showDot  = flag.Bool("dot", false, "print the partition graph in Graphviz DOT")
		showBlk  = flag.Bool("blocks", false, "print the compiled execution blocks per budget (pre-fusion)")
		showFuse = flag.Bool("dump-fused", false, "print the fused superblock program per budget (with fusion statistics)")
		showRpt  = flag.Bool("report", true, "print the partition report per budget")
		showProf = flag.Bool("profile", false, "print the collected profile")
		doVerify = flag.Bool("verify", false, "run the independent verifier over each budget's blocks, pre- and post-fusion; exit nonzero on any finding")
	)
	flag.Parse()
	if *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	sys, err := pyxis.Load(string(src))
	if err != nil {
		fatal(err)
	}

	db := sqldb.Open()
	if *schema != "" {
		ddl, err := os.ReadFile(*schema)
		if err != nil {
			fatal(err)
		}
		if err := pyxis.ExecScript(db, string(ddl)); err != nil {
			fatal(err)
		}
	}
	if err := sys.ProfileSynthetic(db); err != nil {
		fatal(err)
	}
	if *showProf {
		fmt.Println(sys.Profile.String())
	}
	if *showDot {
		fmt.Print(sys.EnsureGraph().DOT(nil))
	}
	fmt.Printf("partition graph: %s\n", sys.EnsureGraph().Stats())

	for _, bs := range strings.Split(*budgets, ",") {
		frac, err := strconv.ParseFloat(strings.TrimSpace(bs), 64)
		if err != nil {
			fatal(fmt.Errorf("bad budget %q: %w", bs, err))
		}
		part, err := sys.PartitionAt(frac)
		if err != nil {
			fatal(err)
		}
		if *showRpt {
			fmt.Printf("budget %.2f: %s\n", frac, part.Describe())
		}
		if *showPyx {
			fmt.Printf("--- PyxIL (budget %.2f) ---\n", frac)
			if err := part.WritePyxIL(os.Stdout); err != nil {
				fatal(err)
			}
		}
		// part.Compiled is post-fusion; both dump flags recompile from
		// the partition's PyxIL so -blocks shows the raw block program
		// and -dump-fused can report the fusion statistics.
		if *showBlk {
			raw, err := compile.Compile(part.PyxIL)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("--- execution blocks (budget %.2f) ---\n%s", frac, raw.Disassemble())
		}
		if *showFuse {
			fused, err := compile.Compile(part.PyxIL)
			if err != nil {
				fatal(err)
			}
			stats := compile.Fuse(fused)
			fmt.Printf("--- fused superblocks (budget %.2f, %s) ---\n%s", frac, stats, fused.Disassemble())
		}
		if *doVerify {
			// Recompile with the in-compile verification hook disabled so
			// findings are COLLECTED and printed with block context rather
			// than aborting inside Compile.
			raw, err := compile.Compile(part.PyxIL, compile.NoVerify())
			if err != nil {
				fatal(err)
			}
			bad := reportDiags(raw, verify.Diagnostics(raw), frac, "pre-fusion")
			compile.Fuse(raw)
			bad = reportDiags(raw, verify.Diagnostics(raw), frac, "post-fusion") || bad
			if bad {
				os.Exit(1)
			}
			fmt.Printf("budget %.2f: verify pre-fusion+post-fusion: OK (%d blocks)\n", frac, len(raw.Blocks))
		}
	}
}

// reportDiags prints verifier findings with the offending block
// disassembled for context, returning whether any were found.
func reportDiags(p *compile.Program, diags []verify.Diag, frac float64, phase string) bool {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "pyxisc: budget %.2f: verify %s: %s\n", frac, phase, d)
		if d.Block != compile.NoBlock {
			for _, line := range strings.Split(strings.TrimRight(p.DisassembleBlock(d.Block), "\n"), "\n") {
				fmt.Fprintf(os.Stderr, "    %s\n", line)
			}
		}
	}
	return len(diags) > 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pyxisc:", err)
	os.Exit(1)
}
