// Fixture for the blockingcall analyzer: a miniature runtime package
// with wire calls, channel receives and selects under the epoch
// mutex, the allowlisted Migrator.Move shape, and the non-blocking /
// release-first / closure / directive shapes that must stay silent.
package runtime

import "sync"

// wire mirrors the mux client surface the runtime blocks on.
type wire struct{}

func (w *wire) Call(method string) error { return nil }
func (w *wire) Fence(op int) error       { return nil }

// Migrator mirrors the runtime's move serializer: Move holds migMu
// across wire round-trips by design, and BlockingCallAllow carries the
// story — the allowlist suppression case.
type Migrator struct {
	migMu sync.Mutex
	w     wire
}

func (m *Migrator) Move() error {
	m.migMu.Lock()
	defer m.migMu.Unlock()
	return m.w.Fence(1)
}

// router mirrors the epoch-publishing shard router.
type router struct {
	epochMu sync.Mutex
	w       wire
	updates chan int
}

// publishAndNotify parks on the wire, on a fence round trip and then
// on a channel while still holding the epoch mutex — all findings.
func (r *router) publishAndNotify() {
	r.epochMu.Lock()
	r.w.Call("publish") // want "calls Call .a wire RPC. while holding epochMu"
	_ = r.w.Fence(2)    // want "calls Fence .a migration-control RPC. while holding epochMu"
	v := <-r.updates    // want "receives from a channel while holding epochMu"
	_ = v
	r.epochMu.Unlock()
}

// waitForUpdate parks in a default-less select under the latch.
func (r *router) waitForUpdate() {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	select { // want "blocks in a select with no default while holding epochMu"
	case <-r.updates:
	}
}

// pollOnce is the non-blocking select shape: the default arm means
// the goroutine never parks, so holding the latch is fine.
func (r *router) pollOnce() {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	select {
	case <-r.updates:
	default:
	}
}

// releaseFirst drops the latch before parking — the recommended fix,
// and the proof the held-tracking sees Unlock.
func (r *router) releaseFirst() {
	r.epochMu.Lock()
	r.epochMu.Unlock()
	_ = r.w.Call("publish")
	<-r.updates
}

// spawnNotifier only DEFINES the blocking closure while latched; the
// closure runs on its own goroutine with its own (empty) latch set.
func (r *router) spawnNotifier() {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	go func() {
		<-r.updates
	}()
}

// probe is the directive-suppression case: the wire call under the
// latch is deliberate and the directive carries the story.
func (r *router) probe() {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	//pyxlint:allow blockingcall -- startup-only: nothing contends epochMu until the first epoch publishes
	_ = r.w.Call("bootstrap")
}
