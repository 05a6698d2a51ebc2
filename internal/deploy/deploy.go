// Package deploy is the one place a Pyxis tier is wired. Both halves
// of a deployment run one program (paper §5–6), decided by the database
// servers: each hosts a Shard — a database and the DB-side runtime
// peer of one partitioned program — on two mux ports, and the
// application side rebuilds its half from what the shards serve, then
// dials a pool of connections to every shard's ports and opens client
// sessions on them. A client session runs every transaction on its
// home shard.
// cmd/pyxis-dbserver calls Listen, cmd/pyxis-app calls Dial, and Up does
// both over loopback TCP in one process for the tests and the examples.
package deploy

import (
	"bytes"
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

// Shard is what one database server hosts. Partition is the program
// served on the control wire; without one there is no control wire, and
// clients speak SQL over the database wire only.
type Shard struct {
	DB        *sqldb.DB
	Partition *pyxis.Partition
	// Mux configures the control wire's demux loops: admission. The
	// database wire is served with no configuration. A database session
	// is the tail of an admitted control session, not a second
	// admission, and shedding there would abort statements of work the
	// server chose to accept.
	Mux rpc.MuxServeConfig
	// Out receives the DB-side program's sys.print output (nil discards
	// it).
	Out io.Writer

	peer *runtime.Peer // DB-side
}

var (
	// ErrProgramMismatch reports shards that serve different programs.
	ErrProgramMismatch = errors.New("deploy: the shards serve different programs")
	// ErrNotServed reports an Open against shards that serve no program.
	ErrNotServed = errors.New("deploy: the shards serve no program")
)

// Server is a Shard being served: DB is its database wire, Ctl its
// control wire (nil when the shard hosts no program).
type Server struct{ DB, Ctl *rpc.MuxServer }

// Listen builds the shard's DB-side peer and serves s over TCP: the
// database wire on dbAddr and, when s hosts a program, the control wire
// on ctlAddr. The database wire answers Client.Program with the
// program's spec, or nothing when s hosts none.
func Listen(s *Shard, dbAddr, ctlAddr string) (*Server, error) {
	var program []byte
	if s.Partition != nil {
		var err error
		if program, err = s.Partition.Spec(); err != nil {
			return nil, err
		}
		s.peer = runtime.NewPeer(s.Partition.Compiled, pdg.DB, s.Out)
	}
	db := func() rpc.SessionHandlers { return dbapi.MuxHandlersProgram(s.DB, program) }
	dbSrv, err := rpc.NewMuxServer(dbAddr, db)
	if err != nil {
		return nil, err
	}
	srv := &Server{DB: dbSrv}
	if s.peer != nil {
		// Session IDs are scoped to their connection, so each connection
		// gets its own manager; a shard's managers share its peer (and so
		// its metrics).
		newConn := func() dbapi.Conn { return dbapi.NewLocal(s.DB) }
		ctl := func() rpc.SessionHandlers { return runtime.NewSessionManager(s.peer, newConn) }
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
// wire, plus the APP-side peer client sessions run on.
type App struct {
	// Partition is the program the shards serve, rebuilt here (nil when
	// they serve none).
	Partition *pyxis.Partition
	// Ctl is the control wire (nil without a program), DB the database
	// wire; shard i of each is dbAddrs[i] / ctlAddrs[i].
	Ctl, DB *rpc.ShardedPool

	peer *runtime.Peer // APP-side
}

// Dial rebuilds the APP side of the program every shard serves (they
// must serve the same bytes, or Dial fails with ErrProgramMismatch and
// holds nothing open), then connects conns connections to each shard's
// database wire and, with a program, to its control wire. out receives
// the APP-side program's sys.print output (nil discards it).
func Dial(dbAddrs, ctlAddrs []string, conns int, out io.Writer) (*App, error) {
	program, err := fetchProgram(dbAddrs)
	if err != nil {
		return nil, err
	}
	a := &App{}
	if len(program) > 0 {
		if len(ctlAddrs) != len(dbAddrs) {
			return nil, fmt.Errorf("deploy: %d database addresses but %d control addresses (one of each per shard)", len(dbAddrs), len(ctlAddrs))
		}
		if a.Partition, err = pyxis.Rebuild(program); err != nil {
			return nil, err
		}
		a.peer = runtime.NewPeer(a.Partition.Compiled, pdg.App, out)
	}
	if a.DB, err = rpc.DialShardedPool(dbAddrs, conns); err != nil {
		return nil, fmt.Errorf("deploy: dial db: %w", err)
	}
	if a.peer != nil {
		if a.Ctl, err = rpc.DialShardedPool(ctlAddrs, conns); err != nil {
			a.Close()
			return nil, fmt.Errorf("deploy: dial ctl: %w", err)
		}
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

// Client is one logical APP-side client homed on a shard: one object
// of one class, on its own control and database sessions. Like the
// runtime client it holds, a Client is one logical thread of control.
type Client struct {
	Shard int
	// Ctl and Conn are the client's control and database sessions.
	Ctl  *rpc.MuxSession
	Conn *dbapi.Client

	rt  *runtime.Client
	oid val.OID
}

// Open opens a client on shard and constructs its object of class: a
// control session and a database session, and the server admits the
// control session here (runtime.Client.Open). A failed Open holds
// nothing open: a refused session fails it with rpc.ErrOverloaded, a
// tier that serves no program with ErrNotServed.
func (a *App) Open(shard int, class string, args ...val.Value) (*Client, error) {
	if a.peer == nil {
		return nil, ErrNotServed
	}
	ctl, err := a.Ctl.Session(shard)
	if err != nil {
		return nil, err
	}
	db, err := a.DB.Session(shard)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	c := &Client{Shard: shard, Ctl: ctl, Conn: dbapi.NewClient(db)}
	c.rt = runtime.NewClient(a.peer.NewSession(c.Conn), ctl)
	if c.oid, err = c.rt.NewObject(class, args...); err == nil {
		err = c.rt.Open()
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Call invokes the entry method on the client's object. The server
// admitted the client at Open and sheds no call; whether to retry an
// error is the caller's decision.
func (c *Client) Call(method string, args ...val.Value) (val.Value, error) {
	return c.rt.CallEntry(method, c.oid, args...)
}

// Close closes the client's sessions.
func (c *Client) Close() error { return c.rt.Close() }

// Topology is a whole tier as data: how many shards and which
// warehouses each owns (the zero map is one shard owning everything),
// how many connections to each shard's wires (0 means 1), the program
// every shard hosts, each shard's control-wire configuration (nil:
// none) and how each shard's database is loaded.
type Topology struct {
	Map       runtime.ShardMap
	Conns     int
	Partition *pyxis.Partition
	Mux       func(shard int, db *sqldb.DB) rpc.MuxServeConfig
	NewDB     func(shard int) (*sqldb.DB, error)
}

// Tier is a running Topology: the App dialled to every shard's Server.
type Tier struct {
	*App
	// Map is the Topology's shard map: which shard owns each key.
	Map runtime.ShardMap
	// DBs is each shard's database.
	DBs []*sqldb.DB

	shards  []*Shard
	servers []*Server
}

// Up stands t up in this process: per shard one database and its
// peer — nothing shared between shards — served on loopback TCP, then
// the App dialled to all of them.
func Up(t Topology) (*Tier, error) {
	tier := &Tier{Map: t.Map}
	var dbAddrs, ctlAddrs []string
	for shard := range t.Map.NumShards() {
		db, err := t.NewDB(shard)
		if err != nil {
			tier.Close()
			return nil, err
		}
		s := &Shard{DB: db, Partition: t.Partition}
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
	app, err := Dial(dbAddrs, ctlAddrs, max(t.Conns, 1), nil)
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
		if s.peer != nil {
			n += s.peer.Metrics.Snapshot().Transfers
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
