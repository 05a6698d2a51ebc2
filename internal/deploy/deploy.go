// Package deploy is the one place a Pyxis tier is wired. Both halves
// of a deployment run one program (paper §5–6), decided by the database
// server: it hosts a Shard — a database and the DB-side runtime peer of
// one partitioned program — on two mux ports, and an App, the
// application side, rebuilds its half from what the server serves,
// dials a pool of connections to its two ports and opens client
// sessions on them. An App dials one server, and a Tier is one server
// and one App.
// cmd/pyxis-dbserver calls Listen, cmd/pyxis-app calls Dial, and Up does
// both over loopback TCP in one process for the tests and the examples.
package deploy

import (
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

// ErrNotServed reports an Open against a server that serves no program.
var ErrNotServed = errors.New("deploy: the server serves no program")

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

// App is the application side of a tier: a pool of connections to one
// server's database wire and, with a program, to its control wire, plus
// the APP-side peer client sessions run on.
type App struct {
	// Partition is the program the server serves, rebuilt here (nil
	// when it serves none).
	Partition *pyxis.Partition
	// Ctl is the control wire (nil without a program), DB the database
	// wire.
	Ctl, DB *rpc.Pool

	peer *runtime.Peer // APP-side
}

// Dial rebuilds the APP side of the program the server at dbAddr
// serves, then connects conns connections to its database wire and,
// with a program, to its control wire at ctlAddr. out receives the
// APP-side program's sys.print output (nil discards it).
func Dial(dbAddr, ctlAddr string, conns int, out io.Writer) (*App, error) {
	program, err := fetchProgram(dbAddr)
	if err != nil {
		return nil, err
	}
	a := &App{}
	if len(program) > 0 {
		if a.Partition, err = pyxis.Rebuild(program); err != nil {
			return nil, err
		}
		a.peer = runtime.NewPeer(a.Partition.Compiled, pdg.App, out)
	}
	if a.DB, err = rpc.DialPool(dbAddr, conns); err != nil {
		return nil, fmt.Errorf("deploy: dial db: %w", err)
	}
	if a.peer != nil {
		if a.Ctl, err = rpc.DialPool(ctlAddr, conns); err != nil {
			a.Close()
			return nil, fmt.Errorf("deploy: dial ctl: %w", err)
		}
	}
	return a, nil
}

// fetchProgram asks the server which program it serves over a
// short-lived connection of its own, so the App's wires count only its
// clients' traffic.
func fetchProgram(dbAddr string) ([]byte, error) {
	pool, err := rpc.DialPool(dbAddr, 1)
	if err != nil {
		return nil, fmt.Errorf("deploy: dial db: %w", err)
	}
	defer pool.Close()
	sess, err := pool.Session()
	if err != nil {
		return nil, err
	}
	program, err := dbapi.NewClient(sess).Program()
	if err != nil {
		return nil, fmt.Errorf("deploy: %s: %w", dbAddr, err)
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

// Client is one logical APP-side client: one object of one class, on
// its own control and database sessions. Like the runtime client it
// holds, a Client is one logical thread of control.
type Client struct {
	// Ctl and Conn are the client's control and database sessions.
	Ctl  *rpc.MuxSession
	Conn *dbapi.Client

	rt  *runtime.Client
	oid val.OID
}

// Open opens a client and constructs its object of class: a control
// session and a database session, and the server admits the control
// session here (runtime.Client.Open). A failed Open holds nothing open:
// a refused session fails it with rpc.ErrOverloaded, a server that
// serves no program with ErrNotServed.
func (a *App) Open(class string, args ...val.Value) (*Client, error) {
	if a.peer == nil {
		return nil, ErrNotServed
	}
	ctl, err := a.Ctl.Session()
	if err != nil {
		return nil, err
	}
	db, err := a.DB.Session()
	if err != nil {
		ctl.Close()
		return nil, err
	}
	c := &Client{Ctl: ctl, Conn: dbapi.NewClient(db)}
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

// Topology is a whole tier as data: how many connections to the
// server's wires (0 means 1), the program it hosts, its control-wire
// configuration and how its database is loaded.
type Topology struct {
	Conns     int
	Partition *pyxis.Partition
	Mux       rpc.MuxServeConfig
	NewDB     func() (*sqldb.DB, error)
}

// Tier is a running Topology: one Server and one App dialled to it.
type Tier struct {
	App *App
	// DB is the server's database.
	DB *sqldb.DB

	shard  *Shard
	server *Server
}

// Up stands t up in this process: a database and its peer served on
// loopback TCP, and an App dialled to it.
func Up(t Topology) (*Tier, error) {
	db, err := t.NewDB()
	if err != nil {
		return nil, err
	}
	s := &Shard{DB: db, Partition: t.Partition, Mux: t.Mux}
	srv, err := Listen(s, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var ctlAddr string
	if srv.Ctl != nil {
		ctlAddr = srv.Ctl.Addr()
	}
	app, err := Dial(srv.DB.Addr(), ctlAddr, max(t.Conns, 1), nil)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &Tier{App: app, DB: db, shard: s, server: srv}, nil
}

// Transfers is the number of control transfers the DB-side peer served
// (> 0 proves partitioned code ran on the DB side).
func (t *Tier) Transfers() int64 {
	if t.shard.peer == nil {
		return 0
	}
	return t.shard.peer.Metrics.Snapshot().Transfers
}

// Close tears the tier down and returns once no connection is being
// served any more.
func (t *Tier) Close() {
	t.App.Close()
	t.server.Close()
}
