// Fixture for the releaseonerror analyzer: a pooled-frame Session in
// miniature, with one leaky error path, one defer-cleaned function,
// one fail-fast-only function and one directive-suppressed
// intentional leak.
package runtimefix

import "errors"

var errDegraded = errors.New("degraded")

var degraded bool

type frame struct{ slots []int }

// Session mirrors the runtime session's pooled-frame API.
type Session struct{ pool []*frame }

func (s *Session) newFrame() (*frame, error) { return &frame{}, nil }

func (s *Session) freeFrame(f *frame) { s.pool = append(s.pool, f) }

// leaky drops the frame on the degraded exit.
func leaky(s *Session) error {
	fr, err := s.newFrame() // want "may leak"
	if err != nil {
		return err
	}
	if degraded {
		return errDegraded
	}
	s.freeFrame(fr)
	return nil
}

// deferred is clean: the defer covers every exit.
func deferred(s *Session) error {
	fr, err := s.newFrame()
	if err != nil {
		return err
	}
	defer s.freeFrame(fr)
	if degraded {
		return errDegraded
	}
	return nil
}

// failFast is clean: the only early return is the fail-fast guard on
// the acquire's own error, where the frame is nil.
func failFast(s *Session) error {
	fr, err := s.newFrame()
	if err != nil {
		return err
	}
	s.freeFrame(fr)
	return nil
}

// DB mirrors the engine's migration-fence API: ArmFence blocks every
// writer of a warehouse range until the token is released (or the TTL
// lapses — which is exactly what a leaked token condemns writers to
// wait out).
type DB struct{ armed bool }

func (db *DB) ArmFence(lo, hi int64) (uint64, error) { db.armed = true; return 1, nil }

func (db *DB) ReleaseFence(token uint64, moved bool) error { db.armed = false; return nil }

// fenceLeaky arms the fence, then bails on the degraded exit without
// releasing: the moving range stays dark for the whole TTL.
func fenceLeaky(db *DB) error {
	token, err := db.ArmFence(1, 4) // want "may leak"
	if err != nil {
		return err
	}
	if degraded {
		return errDegraded
	}
	return db.ReleaseFence(token, true)
}

// fenceClean releases on both exits.
func fenceClean(db *DB) error {
	token, err := db.ArmFence(1, 4)
	if err != nil {
		return err
	}
	if degraded {
		_ = db.ReleaseFence(token, false)
		return errDegraded
	}
	return db.ReleaseFence(token, true)
}

// bodyPool mirrors the mux connection's recycled request bodies.
type bodyPool struct{ free [][]byte }

func (p *bodyPool) getBody(n int) []byte { return make([]byte, 0, n) }

func (p *bodyPool) putBody(b []byte) { p.free = append(p.free, b) }

// bodyLeaky takes a body and forgets it on the degraded exit.
func bodyLeaky(p *bodyPool) error {
	body := p.getBody(64) // want "may leak"
	if degraded {
		return errDegraded
	}
	p.putBody(body)
	return nil
}

// bodyClean puts it back on both exits.
func bodyClean(p *bodyPool) error {
	body := p.getBody(64)
	if degraded {
		p.putBody(body)
		return errDegraded
	}
	p.putBody(body)
	return nil
}

// pinned leaks on purpose; the directive carries the story.
func pinned(s *Session) error {
	//pyxlint:allow releaseonerror -- frame deliberately pinned for the process lifetime (warm-pool seed)
	fr, err := s.newFrame()
	if err != nil {
		return err
	}
	if degraded {
		return errDegraded
	}
	s.freeFrame(fr)
	return nil
}
