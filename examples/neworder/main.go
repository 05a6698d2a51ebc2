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
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
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
	db := cfg.Load()
	// The wiring cmd/pyxis-dbserver uses: both ports speak the mux
	// protocol, and every session a connection opens gets its own
	// database session or runtime session.
	dbSrv, err := rpc.NewMuxServer("127.0.0.1:0", func() rpc.SessionHandlers { return dbapi.MuxHandlers(db) })
	if err != nil {
		log.Fatal(err)
	}
	defer dbSrv.Close()
	dbPeer := runtime.NewPeer(part.Compiled, pdg.DB, nil)
	ctlSrv, err := rpc.NewMuxServer("127.0.0.1:0", func() rpc.SessionHandlers {
		return runtime.NewSessionManager(dbPeer, func() dbapi.Conn { return dbapi.NewLocal(db) })
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctlSrv.Close()
	fmt.Printf("database server: db=%s ctl=%s\n", dbSrv.Addr(), ctlSrv.Addr())

	// --- "Application server": connect and run transactions --------------
	dbWire, err := rpc.DialMux(dbSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer dbWire.Close()
	ctlWire, err := rpc.DialMux(ctlSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer ctlWire.Close()

	// One client is a mux with one session on each wire.
	appPeer := runtime.NewPeer(part.Compiled, pdg.App, nil)
	appSess := appPeer.NewSession(dbapi.NewClient(dbWire.Session()))
	client := runtime.NewClient(appSess, ctlWire.Session())
	defer client.Close()

	oid, err := client.NewObject("TPCC")
	if err != nil {
		log.Fatal(err)
	}
	for k := int64(0); k < 5; k++ {
		total, err := client.CallEntry("TPCC.newOrder", oid,
			val.IntV(1), val.IntV(k%10+1), val.IntV(k%30+1),
			val.IntV(5), val.IntV(k*37+11), val.IntV(1000), val.BoolV(false))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("new order #%d: total = %s\n", k+1, total)
	}

	ctl := ctlWire.Stats()
	dbs := dbWire.Stats()
	fmt.Printf("\nwire traffic: control transfers=%d (%d bytes), app-side db calls=%d\n",
		ctl.Calls, ctl.BytesSent+ctl.BytesRecv, dbs.Calls)
	fmt.Println("(with the high budget, every database operation ran colocated: the app side made", dbs.Calls, "db round trips)")
}
