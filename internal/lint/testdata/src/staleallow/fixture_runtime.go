// Fixture for the staleallow analyzer's BlockingCallAllow audit: this
// Migrator.Move was refactored to release migMu before its wire
// round-trips, so the allowlist entry excusing the old
// block-while-latched shape no longer exempts anything.
package runtime

import "sync"

type wire struct{}

func (w *wire) Fence(op int) error { return nil }

type Migrator struct {
	migMu sync.Mutex
	w     wire
}

func (m *Migrator) Move() error { // want "BlockingCallAllow entry ...Migrator..Move. is stale"
	m.migMu.Lock()
	m.migMu.Unlock()
	return m.w.Fence(1)
}
