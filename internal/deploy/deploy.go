// Package deploy is the one place a Pyxis tier is wired. Both halves
// of a deployment run one program (paper §5–6), decided by the database
// servers: each hosts a Shard — a database, the DB-side runtime peers
// of one program (or of a high/low pair of its partitionings) and a 2PC
// participant — on two mux ports, and the application side rebuilds its
// half from what the shards serve, then dials a pool of connections to
// every shard's ports and opens client sessions on them.
// cmd/pyxis-dbserver calls Listen, cmd/pyxis-app calls Dial, and Up does
// both over loopback TCP in one process for the wall-clock driver and
// the examples.
package deploy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Shard is what one database server hosts. High is the program served
// on the control wire; Low, when set, is a second partitioning of the
// same program served behind the same connections to sessions tagged
// runtime.TagLowBudget (the §6.3 dynamic pair). With neither there is
// no control wire: clients speak SQL over the database wire only.
type Shard struct {
	DB        *sqldb.DB
	High, Low *pyxis.Partition
	// Mux configures the control wire's demux loops: load reports and
	// admission. Its load source also rides the database wire's replies;
	// its admission never does. A database session is the tail of an
	// admitted control session, not a second admission, and shedding
	// there would abort statements of work the server chose to accept.
	Mux rpc.MuxServeConfig
	// Resolver is what the shard's 2PC participant asks about an
	// in-doubt transaction (nil: presumed abort at the deadline).
	Resolver dbapi.Resolver
	// Out receives the DB-side programs' sys.print output (nil
	// discards it).
	Out io.Writer

	peers [2]*runtime.Peer // DB-side: high, low
}

var (
	// ErrProgramMismatch reports shards that serve different programs.
	ErrProgramMismatch = errors.New("deploy: the shards serve different programs")
	// ErrNotServed reports an Open of a program the shards do not serve.
	ErrNotServed = errors.New("deploy: the shards do not serve that program")
)

// Server is a Shard being served: DB is its database wire, Ctl its
// control wire (nil when the shard hosts no program).
type Server struct{ DB, Ctl *rpc.MuxServer }

// Listen builds the shard's DB-side peers and serves s over TCP: the
// database wire on dbAddr and, when s hosts a program, the control wire
// on ctlAddr. The database wire answers Client.Program with the JSON
// list of the programs' specs, High then Low. Everything is built
// before either listener starts, so the first connection accepted
// already carries load reports.
func Listen(s *Shard, dbAddr, ctlAddr string) (*Server, error) {
	var specs []json.RawMessage
	for i, p := range [2]*pyxis.Partition{s.High, s.Low} {
		if p != nil {
			s.peers[i] = runtime.NewPeer(p.Compiled, pdg.DB, s.Out)
			spec, err := p.Spec()
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	var program []byte
	if s.High != nil {
		program, _ = json.Marshal(specs) // a list of valid JSON values
	}
	// One participant for every connection: a coordinator's commit or
	// abort frame may arrive on a different connection than the prepare
	// (pools stripe sessions across connections), and a prepared
	// transaction must be resolvable from any of them.
	part := dbapi.NewParticipant(0, s.Resolver)
	db := func() rpc.SessionHandlers { return dbapi.MuxHandlersTxn(s.DB, part, program) }
	dbSrv, err := rpc.NewMuxServerConfig(dbAddr, db, rpc.MuxServeConfig{Load: s.Mux.Load})
	if err != nil {
		return nil, err
	}
	srv := &Server{DB: dbSrv}
	if s.High != nil {
		// Session IDs are scoped to their connection, so each connection
		// gets its own manager; a shard's managers share its peers (and so
		// their metrics). Without a Low peer every session runs High.
		newConn := func() dbapi.Conn { return dbapi.NewLocal(s.DB) }
		ctl := func() rpc.SessionHandlers { return runtime.NewDualSessionManager(s.peers[0], s.peers[1], newConn) }
		if srv.Ctl, err = rpc.NewMuxServerConfig(ctlAddr, ctl, s.Mux); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// Close stops both wires and returns once every connection drained:
// every session's transaction a client left open is rolled back.
func (s *Server) Close() {
	if s.Ctl != nil {
		s.Ctl.Close()
	}
	s.DB.Close()
}

// App is the application side of a tier: a pool of connections to
// every shard's database wire and, with a program, to its control
// wire, plus the APP-side peers client sessions run on.
type App struct {
	// High and Low are the partitions the shards serve, rebuilt here
	// (nil where they serve none).
	High, Low *pyxis.Partition
	// Router holds the shard map, the 2PC coordinator and one load EWMA
	// per shard, fed by every load report either wire carries.
	Router *runtime.ShardedClient
	// Ctl is the control wire (nil without a program), DB the database
	// wire; shard i of each is dbAddrs[i] / ctlAddrs[i].
	Ctl, DB *rpc.ShardedPool

	peers [2]*runtime.Peer // APP-side: high, low
}

// Dial rebuilds the APP side of the program every shard serves (they
// must serve the same bytes, or Dial fails with ErrProgramMismatch and
// holds nothing open), then connects conns connections to each shard's
// database wire and, with a program, to its control wire. out receives
// the APP-side programs' sys.print output (nil discards it).
func Dial(router *runtime.ShardedClient, dbAddrs, ctlAddrs []string, conns int, out io.Writer) (*App, error) {
	program, err := fetchProgram(dbAddrs)
	if err != nil {
		return nil, err
	}
	a := &App{Router: router}
	if len(program) > 0 {
		if len(ctlAddrs) != len(dbAddrs) {
			return nil, fmt.Errorf("deploy: %d database addresses but %d control addresses (one of each per shard)", len(dbAddrs), len(ctlAddrs))
		}
		var specs []json.RawMessage
		if err := json.Unmarshal(program, &specs); err != nil || len(specs) > 2 {
			return nil, fmt.Errorf("deploy: the shards serve a malformed program list (%d entries): %v", len(specs), err)
		}
		var parts [2]*pyxis.Partition
		for i, spec := range specs {
			if parts[i], err = pyxis.Rebuild(spec); err != nil {
				return nil, err
			}
			a.peers[i] = runtime.NewPeer(parts[i].Compiled, pdg.App, out)
		}
		a.High, a.Low = parts[0], parts[1]
	}
	if a.DB, err = rpc.DialShardedPool(dbAddrs, conns); err != nil {
		return nil, fmt.Errorf("deploy: dial db: %w", err)
	}
	a.DB.SetOnLoad(router.Observe)
	if a.High != nil {
		if a.Ctl, err = rpc.DialShardedPool(ctlAddrs, conns); err != nil {
			a.Close()
			return nil, fmt.Errorf("deploy: dial ctl: %w", err)
		}
		a.Ctl.SetOnLoad(router.Observe)
	}
	return a, nil
}

// fetchProgram asks each shard which program it serves over a
// short-lived connection of its own, so the App's wires count only its
// clients' traffic.
func fetchProgram(dbAddrs []string) ([]byte, error) {
	pool, err := rpc.DialShardedPool(dbAddrs, 1)
	if err != nil {
		return nil, fmt.Errorf("deploy: dial db: %w", err)
	}
	defer pool.Close()
	var program []byte
	for shard, addr := range dbAddrs {
		sess, err := pool.Session(shard)
		if err != nil {
			return nil, err
		}
		p, err := dbapi.NewClient(sess).Program()
		if err != nil {
			return nil, fmt.Errorf("deploy: shard %d (%s): %w", shard, addr, err)
		}
		if shard > 0 && !bytes.Equal(p, program) {
			return nil, fmt.Errorf("%w: shard %d (%s) serves another program than shard 0 (%s)", ErrProgramMismatch, shard, addr, dbAddrs[0])
		}
		program = p
	}
	return program, nil
}

// Close hangs up every connection; all sessions fail afterwards.
func (a *App) Close() {
	if a.Ctl != nil {
		a.Ctl.Close()
	}
	a.DB.Close()
}

// Client is one APP-side session homed on a shard: a runtime client
// whose control transfers ride Ctl and whose APP-side SQL rides Conn,
// and the object its entry calls are made on.
type Client struct {
	*runtime.Client
	Shard int
	Ctl   *rpc.MuxSession
	Conn  *dbapi.Client
	OID   val.OID
}

// Open opens a session of the high (or low) program on shard — a
// control session tagged for that program and a database session — and
// constructs its object of class. A failed Open holds nothing open; a
// program the shards do not serve fails with ErrNotServed.
func (a *App) Open(shard int, low bool, class string, args ...val.Value) (*Client, error) {
	peer, tag := a.peers[0], uint8(0)
	if low {
		peer, tag = a.peers[1], runtime.TagLowBudget
	}
	if peer == nil {
		return nil, ErrNotServed
	}
	ctl, err := a.Ctl.TaggedSession(shard, tag)
	if err != nil {
		return nil, err
	}
	db, err := a.DB.Session(shard)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	c := &Client{Shard: shard, Ctl: ctl, Conn: dbapi.NewClient(db)}
	c.Client = runtime.NewClient(peer.NewSession(c.Conn), ctl)
	if c.OID, err = c.NewObject(class, args...); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Topology is a whole tier as data: how many shards and which
// warehouses each owns (the zero map is one shard owning everything),
// how many connections to each shard's wires (0 means 1), the program
// pair every shard hosts, each shard's mux configuration (nil: none)
// and how each shard's database is loaded.
type Topology struct {
	Map       runtime.ShardMap
	Conns     int
	High, Low *pyxis.Partition
	Mux       func(shard int, db *sqldb.DB) rpc.MuxServeConfig
	NewDB     func(shard int) (*sqldb.DB, error)
}

// Tier is a running Topology: the App dialled to every shard's Server.
type Tier struct {
	*App
	// DBs is each shard's database.
	DBs []*sqldb.DB

	shards  []*Shard
	servers []*Server
}

// Up stands t up in this process: per shard one database, its peers
// and one 2PC participant resolving against the router's coordinator —
// nothing shared between shards — served on loopback TCP, then the
// App dialled to all of them.
func Up(t Topology) (*Tier, error) {
	router := runtime.NewShardedClient(t.Map)
	tier := &Tier{}
	var dbAddrs, ctlAddrs []string
	for shard := range t.Map.NumShards() {
		db, err := t.NewDB(shard)
		if err != nil {
			tier.Close()
			return nil, err
		}
		s := &Shard{DB: db, High: t.High, Low: t.Low, Resolver: router.TwoPC.Outcome}
		if t.Mux != nil {
			s.Mux = t.Mux(shard, db)
		}
		srv, err := Listen(s, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			tier.Close()
			return nil, err
		}
		tier.DBs, tier.shards, tier.servers = append(tier.DBs, db), append(tier.shards, s), append(tier.servers, srv)
		dbAddrs = append(dbAddrs, srv.DB.Addr())
		if srv.Ctl != nil {
			ctlAddrs = append(ctlAddrs, srv.Ctl.Addr())
		}
	}
	app, err := Dial(router, dbAddrs, ctlAddrs, max(t.Conns, 1), nil)
	if err != nil {
		tier.Close()
		return nil, err
	}
	tier.App = app
	return tier, nil
}

// Transfers is the number of control transfers the DB-side peers
// served (> 0 proves partitioned code ran on the DB side).
func (t *Tier) Transfers() (n int64) {
	for _, s := range t.shards {
		for _, p := range s.peers {
			if p != nil {
				n += p.Metrics.Snapshot().Transfers
			}
		}
	}
	return n
}

// Close tears the tier down and returns once no connection is being
// served any more.
func (t *Tier) Close() {
	if t.App != nil {
		t.App.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
}
