// Fixture for the blockingcall analyzer: a miniature sqldb package
// with wire calls, channel receives and selects under the catalog
// latch, and the non-blocking / release-first / closure / directive
// shapes that must stay silent.
package sqldb

import "sync"

// wire mirrors the mux client surface a caller could block on.
type wire struct{}

func (w *wire) Call(method string) error { return nil }

// DB mirrors the engine's catalog latch.
type DB struct {
	catMu   sync.RWMutex
	w       wire
	updates chan int
}

// publishAndNotify parks on the wire and then on a channel while still
// holding the catalog latch — both findings.
func (db *DB) publishAndNotify() {
	db.catMu.Lock()
	db.w.Call("publish") // want "calls Call .a wire RPC. while holding catMu"
	v := <-db.updates    // want "receives from a channel while holding catMu"
	_ = v
	db.catMu.Unlock()
}

// waitForUpdate parks in a default-less select under the latch.
func (db *DB) waitForUpdate() {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	select { // want "blocks in a select with no default while holding catMu"
	case <-db.updates:
	}
}

// pollOnce is the non-blocking select shape: the default arm means
// the goroutine never parks, so holding the latch is fine.
func (db *DB) pollOnce() {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	select {
	case <-db.updates:
	default:
	}
}

// releaseFirst drops the latch before parking — the recommended fix,
// and the proof the held-tracking sees Unlock.
func (db *DB) releaseFirst() {
	db.catMu.Lock()
	db.catMu.Unlock()
	_ = db.w.Call("publish")
	<-db.updates
}

// spawnNotifier only DEFINES the blocking closure while latched; the
// closure runs on its own goroutine with its own (empty) latch set.
func (db *DB) spawnNotifier() {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	go func() {
		<-db.updates
	}()
}

// probe is the directive-suppression case: the wire call under the
// latch is deliberate and the directive carries the story.
func (db *DB) probe() {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	//pyxlint:allow blockingcall -- startup-only: nothing contends catMu before the first session opens
	_ = db.w.Call("bootstrap")
}
