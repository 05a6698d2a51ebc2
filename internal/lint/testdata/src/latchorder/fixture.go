// Fixture for the latchorder analyzer: a miniature sqldb package with
// one unaudited structural access, one latch-order inversion, one
// doc-story-audited function and one directive-suppressed probe.
package sqldb

import "sync"

// DB mirrors the engine's catalog shape.
type DB struct {
	catMu  sync.RWMutex
	tables map[string]*Table
}

// Table mirrors the engine's table shape (rows is a guarded
// structural field).
type Table struct {
	latch sync.RWMutex
	rows  []int
}

// rogue touches table structure with no latch story at all.
func rogue(t *Table) int {
	return len(t.rows) // want "without a latch story"
}

// blessed reads the catalog under the documented latch.
//
// latch: catMu read
func (db *DB) blessed(name string) *Table {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	return db.tables[name]
}

// inverted climbs the hierarchy backwards: table latch first, then
// the catalog latch.
func (db *DB) inverted(t *Table) {
	t.latch.Lock()
	db.catMu.Lock() // want "acquires catMu .rank 1. after latch"
	db.catMu.Unlock()
	t.latch.Unlock()
}

// probe is the suppression case: same shape as rogue, but the
// directive carries the story, so no diagnostic survives.
func probe(t *Table) int {
	//pyxlint:allow latchorder -- debug-only probe; the single-threaded harness owns the table
	return len(t.rows)
}
