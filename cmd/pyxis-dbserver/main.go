// Command pyxis-dbserver runs the database side of a real two-process
// Pyxis deployment: an in-memory database plus the DB-side Pyxis
// runtime, both served over TCP. It is the stand-in for "MySQL + the
// stored-procedure JVM" of the paper's testbed.
//
// It listens on two ports: -db serves the database wire protocol
// (what a JDBC-like client or an APP-side partition connects to), and
// -ctl serves Pyxis control transfers. Both ports speak the
// multiplexed session protocol: one connection from an application
// server carries any number of concurrent client sessions, each with
// its own heap, stack and transaction context, all sharing the one
// compiled program and database. The server decides the deployment's
// program; pyxis-app rebuilds its half from what the database port
// serves.
//
// With -dynamic it serves BOTH the -budget and -low-budget partitions
// at once behind a dual session manager (the session ID's tag byte
// selects the deployment) and piggy-backs a load report — CPU proxy,
// per-session queue depth, lock-wait rate — on every mux reply, so a
// pyxis-app running -dynamic can switch partitionings per session as
// load moves (paper §6.3).
//
// With -max-sessions and/or -admit-high the server stops merely
// REPORTING saturation and starts refusing it: an admission controller
// gates session creation (and per-call queueing) on the concurrent
// session cap and on the same blended load signal the reports carry,
// with hysteresis (-admit-high enter / -admit-low leave) so admission
// doesn't flap. Refused work is shed with the typed overload reply,
// which every pyxis-app backoff path already retries. Note that a
// -dynamic pyxis-app client holds a PAIR of control sessions (high- +
// low-budget); the controller has no notion of pairing, so a cap
// between N+1 and 2N-1 for N dynamic clients can leave every client
// holding its first session while shed on its second — size
// -max-sessions at 2x the intended dynamic client count.
//
// With -shard i/N the process declares itself shard i of an N-server
// shared-nothing tier: each shard runs its own database, lock manager,
// runtime peers, load monitor and admission controller — nothing is
// shared between shard processes, which is the whole point. The flag
// is the deployment contract, not a behavior switch: the server stays
// shard-unaware by design, the -schema script loads only this shard's
// slice of the data, and a pyxis-app started with matching -db/-ctl
// address lists routes every session to its home shard by partition
// key (runtime.ShardMap) and refuses shards serving different programs.
// The database port also serves the live-rebalancing control plane
// (fence, adopt and release dbapi ops), so an external runtime.Migrator
// can move warehouse ranges between shard processes without restarting
// them.
//
// Usage:
//
//	pyxis-dbserver -src order.pyxj -budget 1.0 -schema schema.sql \
//	    -db :7001 -ctl :7002 [-dynamic -low-budget 0] \
//	    [-max-sessions 256] [-admit-high 85 -admit-low 60] \
//	    [-shard 0/4]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pyxis"
	"pyxis/internal/deploy"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
)

func main() {
	var (
		srcPath = flag.String("src", "", "PyxJ source file (required)")
		budget  = flag.Float64("budget", 1.0, "budget fraction used to generate the partition")
		schema  = flag.String("schema", "", "file with ';'-separated SQL statements to initialize the database")
		dbAddr  = flag.String("db", ":7001", "database wire protocol listen address")
		ctlAddr = flag.String("ctl", ":7002", "Pyxis control-transfer listen address")
		dynamic = flag.Bool("dynamic", false,
			"serve BOTH the -budget and -low-budget partitions for dynamic switching and piggy-back load reports on every reply")
		lowBudget   = flag.Float64("low-budget", 0, "budget fraction of the low-CPU partition served alongside -budget with -dynamic")
		maxSessions = flag.Int("max-sessions", 0,
			"cap on concurrently admitted control sessions (0 = unlimited; a -dynamic client holds TWO control sessions, so size the cap at 2x the intended client count)")
		admitHigh = flag.Float64("admit-high", 0, "blended load percent above which new sessions are refused (0 disables the load gate)")
		admitLow  = flag.Float64("admit-low", 0, "blended load percent below which admission resumes (default admit-high - 25)")
		shardSlot = flag.String("shard", "",
			"shard slot \"i/n\" this server owns in an n-shard shared-nothing tier (load only this shard's data via -schema; empty = unsharded)")
	)
	flag.Parse()
	if *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	shardDesc := ""
	if *shardSlot != "" {
		shard, shards, err := runtime.ParseShardSlot(*shardSlot)
		if err != nil {
			fatal(err)
		}
		shardDesc = fmt.Sprintf(" shard=%d/%d", shard, shards)
	}

	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	sys, err := pyxis.Load(string(src))
	if err != nil {
		fatal(err)
	}
	// The served database and the profiling database start from the same
	// schema script.
	db, profDB := sqldb.Open(), sqldb.Open()
	if *schema != "" {
		ddl, err := os.ReadFile(*schema)
		if err != nil {
			fatal(err)
		}
		for _, d := range []*sqldb.DB{db, profDB} {
			if err := pyxis.ExecScript(d, string(ddl)); err != nil {
				fatal(err)
			}
		}
	}
	if err := sys.ProfileSynthetic(profDB); err != nil {
		fatal(err)
	}
	part, err := sys.PartitionAt(*budget)
	if err != nil {
		fatal(err)
	}

	// One shard: the database and the DB-side runtime behind both ports.
	// With -dynamic the low-budget partition is served behind the same
	// connections (sessions tagged runtime.TagLowBudget route to it) and
	// a load monitor piggy-backs the server's saturation signal (CPU
	// proxy, per-session queue depth, lock-wait rate) on every reply of
	// both ports for the app side's switcher EWMA. The 2PC participant
	// has no resolver: an in-doubt branch is presumed aborted at its
	// deadline.
	shard := &deploy.Shard{DB: db, High: part, Out: os.Stdout}
	mon := runtime.NewLoadMonitor(db)
	dynDesc := ""
	if *dynamic {
		if shard.Low, err = sys.PartitionAt(*lowBudget); err != nil {
			fatal(err)
		}
		shard.Mux.Load = mon.Source()
		dynDesc = fmt.Sprintf(" low-partition={%s}", shard.Low.Describe())
	}

	// Admission control: one controller for the control port, with the
	// session cap and the hysteretic load gate server-wide across its
	// connections. The load gate reads the same monitor the -dynamic
	// reports ride.
	admDesc := ""
	if *maxSessions > 0 || *admitHigh > 0 {
		admCfg := runtime.AdmissionConfig{MaxSessions: *maxSessions}
		gateMon := (*runtime.LoadMonitor)(nil) // cap-only unless -admit-high
		if *admitHigh > 0 {
			admCfg.HighLoad = *admitHigh
			admCfg.LowLoad = *admitLow
			if admCfg.LowLoad <= 0 {
				admCfg.LowLoad = *admitHigh - 25
				if admCfg.LowLoad < *admitHigh/2 {
					admCfg.LowLoad = *admitHigh / 2
				}
			}
			gateMon = mon
		}
		shard.Mux.Admission = runtime.NewAdmissionController(gateMon, admCfg)
		admDesc = fmt.Sprintf(" admission={max-sessions=%d admit-high=%.0f admit-low=%.0f}",
			*maxSessions, admCfg.HighLoad, admCfg.LowLoad)
		if *admitHigh <= 0 {
			admDesc = fmt.Sprintf(" admission={max-sessions=%d}", *maxSessions)
		}
	}

	srv, err := deploy.Listen(shard, *dbAddr, *ctlAddr)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	// The db wire always speaks the migration control plane (the
	// handlers are the same dbapi mux set the migrator fences through);
	// say so at startup so an operator wiring up a rebalance knows this
	// build can be a migration source or destination.
	fmt.Printf("pyxis-dbserver: db=%s ctl=%s%s dynamic=%v migration=fence/adopt/release partition={%s}%s%s\n",
		srv.DB.Addr(), srv.Ctl.Addr(), shardDesc, *dynamic, part.Describe(), dynDesc, admDesc)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pyxis-dbserver:", err)
	os.Exit(1)
}
