package runtime

import (
	"sync"

	"pyxis/internal/dbapi"
	"pyxis/internal/rpc"
)

// SessionManager hosts the DB-side sessions of one peer: many logical
// clients share the compiled Program and the database while each keeps
// its own heap, stack, transaction context and pending sync. It
// implements rpc.SessionHandlers, so it plugs directly into a
// multiplexed transport's demux: every session ID observed on the wire
// gets its own runtime Session served concurrently with the others.
type SessionManager struct {
	Peer *Peer
	// NewConn opens one database connection per session (the
	// connection carries the session's transaction context, and closing
	// it rolls back a transaction left open, as dbapi.Local's Close does).
	NewConn func() dbapi.Conn

	mu       sync.Mutex
	sessions map[uint32]*Session
	nextID   uint32
}

// NewSessionManager creates a manager over the shared peer. newConn is
// invoked once per session.
func NewSessionManager(peer *Peer, newConn func() dbapi.Conn) *SessionManager {
	return &SessionManager{Peer: peer, NewConn: newConn, sessions: map[uint32]*Session{}}
}

// Session returns the session for id, creating it on first use.
func (m *SessionManager) Session(id uint32) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	sn := m.sessions[id]
	if sn == nil {
		sn = m.Peer.NewSession(m.NewConn())
		m.sessions[id] = sn
	}
	return sn
}

// NextID allocates a session ID no live session of this manager uses.
func (m *SessionManager) NextID() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		m.nextID++
		if _, taken := m.sessions[m.nextID]; !taken {
			return m.nextID
		}
	}
}

// Close retires a session: its connection is closed, which rolls back
// any transaction left open on it (releasing row locks), and its state
// is dropped. Closing an unknown id is a no-op.
func (m *SessionManager) Close(id uint32) {
	m.mu.Lock()
	sn := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if sn != nil {
		_ = sn.Close()
	}
}

// Len returns the number of live sessions.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Open implements rpc.SessionHandlers: it serves the control-transfer
// protocol for session id.
func (m *SessionManager) Open(id uint32) rpc.Handler {
	return Handler(m.Session(id))
}

// Closed implements rpc.SessionHandlers.
func (m *SessionManager) Closed(id uint32) { m.Close(id) }

var _ rpc.SessionHandlers = (*SessionManager)(nil)
