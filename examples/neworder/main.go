// New-order over real TCP: this example deploys the TPC-C new-order
// transaction as a genuine two-process-style Pyxis deployment — a
// database server (sqldb + DB-side runtime) listening on TCP ports,
// and an application-side client that connects, runs transactions,
// and reports the wire traffic. It demonstrates that the same
// partition that the simulator evaluates also executes over a real
// network stack (cmd/pyxis-dbserver and cmd/pyxis-app split the same
// code across two processes).
package main

import (
	"fmt"
	"log"

	"pyxis/internal/bench"
	"pyxis/internal/deploy"
	"pyxis/internal/val"
)

func main() {
	cfg := bench.DefaultTPCC()

	// Generate the stored-procedure-like partition (high budget).
	part, err := cfg.PyxisPartition(1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partition:", part.Describe())

	// --- "Database server": database + DB-side runtime over TCP ----------
	// The wiring cmd/pyxis-dbserver uses: both ports speak the mux
	// protocol, and every session a connection opens gets its own
	// database session or runtime session.
	srv, err := deploy.Listen(&deploy.Shard{DB: cfg.Load(), Partition: part}, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("database server: db=%s ctl=%s\n", srv.DB.Addr(), srv.Ctl.Addr())

	// --- "Application server": connect and run transactions --------------
	// The wiring cmd/pyxis-app uses: one client is a session on each wire.
	app, err := deploy.Dial(srv.DB.Addr(), srv.Ctl.Addr(), 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()
	client, err := app.Open("TPCC")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	for k := int64(0); k < 5; k++ {
		total, err := client.Call("TPCC.newOrder",
			val.IntV(1), val.IntV(k%10+1), val.IntV(k%30+1),
			val.IntV(5), val.IntV(k*37+11), val.IntV(1000), val.BoolV(false))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("new order #%d: total = %s\n", k+1, total)
	}

	ctl := app.Ctl.Stats()
	dbs := app.DB.Stats()
	fmt.Printf("\nwire traffic: control transfers=%d (%d bytes), app-side db calls=%d\n",
		ctl.Calls, ctl.BytesSent+ctl.BytesRecv, dbs.Calls)
	fmt.Println("(with the high budget, every database operation ran colocated: the app side made", dbs.Calls, "db round trips)")
}
