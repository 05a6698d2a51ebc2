// Package profile holds the dynamic information Pyxis gathers by
// instrumenting a workload run (paper §4.1): per-statement execution
// counts, average assigned-data sizes, and the network parameters
// (latency, bandwidth) that convert cut dependencies into estimated
// time. The partitioner weights the partition graph with these.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pyxis/internal/interp"
	"pyxis/internal/source"
)

// Profile is the collected workload profile; encoding/json round-trips
// it exactly (a partition spec carries it).
type Profile struct {
	// Count is per-statement execution count (loop headers count one
	// per condition evaluation).
	Count map[source.NodeID]int64
	// SizeSum/SizeN accumulate assigned-value sizes per def statement.
	SizeSum map[source.NodeID]int64
	SizeN   map[source.NodeID]int64
	// FieldSizeSum/FieldSizeN accumulate sizes per field node.
	FieldSizeSum map[source.NodeID]int64
	FieldSizeN   map[source.NodeID]int64
	// DBCalls counts database operations per statement.
	DBCalls map[source.NodeID]int64
	// EntryCalls counts external invocations per method entry node
	// (entry-point wrappers and external object construction).
	EntryCalls map[source.NodeID]int64

	// Latency is the measured network round-trip time between the
	// application and database servers.
	Latency time.Duration
	// BandwidthBps is the measured link bandwidth in bytes/second.
	BandwidthBps float64
}

// New returns an empty profile with the paper's testbed defaults
// (2 ms ping RTT; ~1 Gbit/s link).
func New() *Profile {
	return &Profile{
		Count:        map[source.NodeID]int64{},
		SizeSum:      map[source.NodeID]int64{},
		SizeN:        map[source.NodeID]int64{},
		FieldSizeSum: map[source.NodeID]int64{},
		FieldSizeN:   map[source.NodeID]int64{},
		DBCalls:      map[source.NodeID]int64{},
		EntryCalls:   map[source.NodeID]int64{},
		Latency:      2 * time.Millisecond,
		BandwidthBps: 125e6,
	}
}

// Hooks returns interpreter hooks that record into p.
func (p *Profile) Hooks() interp.Hooks {
	return interp.Hooks{
		OnStmt:   func(id source.NodeID) { p.Count[id]++ },
		OnAssign: func(id source.NodeID, size int) { p.SizeSum[id] += int64(size); p.SizeN[id]++ },
		OnFieldWrite: func(fieldID source.NodeID, size int) {
			p.FieldSizeSum[fieldID] += int64(size)
			p.FieldSizeN[fieldID]++
		},
		OnDBCall:    func(id source.NodeID) { p.DBCalls[id]++ },
		OnEntryCall: func(m *source.Method) { p.EntryCalls[m.EntryID]++ },
	}
}

// Cnt returns the execution count of a node as float.
func (p *Profile) Cnt(id source.NodeID) float64 { return float64(p.Count[id]) }

// DefaultSize is the assumed size for defs never observed at runtime.
const DefaultSize = 16

// AvgSize returns the average assigned size at a def statement.
func (p *Profile) AvgSize(id source.NodeID) float64 {
	if n := p.SizeN[id]; n > 0 {
		return float64(p.SizeSum[id]) / float64(n)
	}
	return DefaultSize
}

// FieldAvgSize returns the average size stored into a field.
func (p *Profile) FieldAvgSize(id source.NodeID) float64 {
	if n := p.FieldSizeN[id]; n > 0 {
		return float64(p.FieldSizeSum[id]) / float64(n)
	}
	return DefaultSize
}

// String renders the hottest statements for debugging.
func (p *Profile) String() string {
	type kv struct {
		id source.NodeID
		n  int64
	}
	var all []kv
	for id, n := range p.Count {
		all = append(all, kv{id, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d statements, RTT=%v BW=%.0fMB/s\n", len(all), p.Latency, p.BandwidthBps/1e6)
	for i, e := range all {
		if i >= 10 {
			break
		}
		fmt.Fprintf(&b, "  node %-4d count=%d\n", e.id, e.n)
	}
	return b.String()
}
