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
// With -max-sessions K the server refuses work it cannot take: an
// admission controller decides once per control session, when it
// opens, whether fewer than K sessions are open server-wide. A refused
// session is shed with the typed overload reply, which pyxis-app
// retries at open; an admitted session's calls are never shed. Every
// pyxis-app client whose program can transfer control holds one
// control session; a -budget 0 program runs wholly on the APP side and
// holds none.
//
// One process is one database server, as in the paper's testbed, and a
// pyxis-app dials exactly one. The -schema script loads all of its
// data, and the database port serves statements, transaction ops and
// the program description only.
//
// Usage:
//
//	pyxis-dbserver -src order.pyxj -budget 1.0 -schema schema.sql \
//	    -db :7001 -ctl :7002 [-max-sessions 256]
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
		srcPath     = flag.String("src", "", "PyxJ source file (required)")
		budget      = flag.Float64("budget", 1.0, "budget fraction used to generate the partition")
		schema      = flag.String("schema", "", "file with ';'-separated SQL statements to initialize the database")
		dbAddr      = flag.String("db", ":7001", "database wire protocol listen address")
		ctlAddr     = flag.String("ctl", ":7002", "Pyxis control-transfer listen address")
		maxSessions = flag.Int("max-sessions", 0, "cap on concurrently admitted control sessions (0 = unlimited; must not be negative)")
	)
	flag.Parse()
	if *srcPath == "" || *maxSessions < 0 {
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

	// The database and the DB-side runtime behind both ports.
	shard := &deploy.Shard{DB: db, Partition: part, Out: os.Stdout}

	// Admission control: one session cap for the control port, shared
	// by all of its connections.
	admDesc := ""
	if *maxSessions > 0 {
		shard.Mux.Admission = runtime.NewAdmissionController(*maxSessions)
		admDesc = fmt.Sprintf(" admission={max-sessions=%d}", *maxSessions)
	}

	srv, err := deploy.Listen(shard, *dbAddr, *ctlAddr)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	fmt.Printf("pyxis-dbserver: db=%s ctl=%s partition={%s}%s\n",
		srv.DB.Addr(), srv.Ctl.Addr(), part.Describe(), admDesc)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pyxis-dbserver:", err)
	os.Exit(1)
}
