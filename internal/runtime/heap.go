// Package runtime executes compiled Pyxis programs (paper §6): it
// maintains the explicit program stack and the distributed heap,
// executes placement-annotated blocks, performs control transfers
// between the application-server and database-server peers with
// piggy-backed heap/stack synchronization, and dynamically switches
// between pre-generated partitionings based on database CPU load.
//
// The runtime is multi-session: a Peer is the shared per-side engine
// (compiled program, environment, aggregate metrics) while each
// logical client owns a Session (heap, frame stack, database
// connection, pending sync). One Session preserves the paper's single
// logical thread of control; a SessionManager hosts many Sessions on
// the DB side concurrently, typically demultiplexed from one
// rpc.MuxClient connection.
package runtime

import (
	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Object is the runtime representation of a class instance. Every
// source-level object is split into an APP part and a DB part (paper
// Fig. 6); each peer holds copies of both, and a part sync ships the
// fields of a part this peer set since it last synced that part.
type Object struct {
	Class *compile.ClassInfo
	App   []val.Value
	DB    []val.Value
	// appSet and dbSet mark, per part, the fields set here since the
	// part last synced (bit i of word i>>6); nil until the first set.
	appSet, dbSet []uint64
}

// Part returns the field storage of one part.
func (o *Object) Part(loc pdg.Loc) []val.Value {
	if loc == pdg.DB {
		return o.DB
	}
	return o.App
}

// setMask returns the written-field mask of one part.
func (o *Object) setMask(loc pdg.Loc) *[]uint64 {
	if loc == pdg.DB {
		return &o.dbSet
	}
	return &o.appSet
}

// markWritten records that this peer set field i of part loc.
func (o *Object) markWritten(loc pdg.Loc, i int) {
	m := o.setMask(loc)
	if *m == nil {
		*m = make([]uint64, (len(o.Part(loc))+63)/64)
	}
	(*m)[i>>6] |= 1 << (uint(i) & 63)
}

// Array is a runtime array; placement follows its allocation site.
type Array struct {
	Elems []val.Value
}

// Table is a materialized query result (a "native object" in the
// paper's terminology — shipped wholesale with sendNative). A table
// the sweep frees goes back to its heap's free list and is filled
// again by the next query or table sync, so a table read after the
// sweep that freed it reads another result (garbage under
// val.ScribbleReleased).
type Table struct {
	sqldb.ResultSet
}

// tableFreeCap bounds a heap's free list of tables.
const tableFreeCap = 32

// Heap stores one peer's objects, arrays and tables by OID. OID
// parity partitions the ID space: the APP peer allocates odd IDs, the
// DB peer even ones, so both allocate without coordination.
type Heap struct {
	objs map[val.OID]*Object
	arrs map[val.OID]*Array
	tabs map[val.OID]*Table
	// free holds swept tables, emptied, for takeTable.
	free []*Table
	next val.OID
}

// NewHeap creates an empty heap for the given side.
func NewHeap(side pdg.Loc) *Heap {
	h := &Heap{
		objs: map[val.OID]*Object{},
		arrs: map[val.OID]*Array{},
		tabs: map[val.OID]*Table{},
	}
	if side == pdg.DB {
		h.next = 2
	} else {
		h.next = 1
	}
	return h
}

func (h *Heap) alloc() val.OID {
	oid := h.next
	h.next += 2
	return oid
}

// NewObject allocates an object with zeroed parts.
func (h *Heap) NewObject(ci *compile.ClassInfo) val.OID {
	oid := h.alloc()
	h.objs[oid] = &Object{Class: ci, App: ci.ZeroPart(pdg.App), DB: ci.ZeroPart(pdg.DB)}
	return oid
}

// NewArray allocates an array of n copies of zero.
func (h *Heap) NewArray(n int, zero val.Value) val.OID {
	oid := h.alloc()
	elems := make([]val.Value, n)
	for i := range elems {
		elems[i] = zero
	}
	h.arrs[oid] = &Array{Elems: elems}
	return oid
}

// takeTable returns an empty table, recycled from the free list when
// there is one, for the caller to fill and then store (putTable) or
// give back (freeTable).
func (h *Heap) takeTable() *Table {
	n := len(h.free)
	if n == 0 {
		return new(Table)
	}
	t := h.free[n-1]
	h.free[n-1] = nil
	h.free = h.free[:n-1]
	return t
}

// putTable stores t under a new OID.
func (h *Heap) putTable(t *Table) val.OID {
	oid := h.alloc()
	h.tabs[oid] = t
	return oid
}

// freeTable empties t (sqldb.ResultSet.Reset) onto the free list.
func (h *Heap) freeTable(t *Table) {
	t.Reset()
	if len(h.free) < tableFreeCap {
		h.free = append(h.free, t)
	}
}

// Object returns the object for oid, materializing a zeroed instance
// of class ci if this peer has not seen it (lazy materialization: the
// authoritative state arrives via sync records before any real use —
// guaranteed by the conservative sync insertion). An object already
// present must be of class ci: the caller indexes its parts by ci's
// field layout.
func (h *Heap) Object(oid val.OID, ci *compile.ClassInfo) (*Object, error) {
	if oid == 0 {
		return nil, runErr("null dereference")
	}
	o, ok := h.objs[oid]
	if !ok {
		o = &Object{Class: ci, App: ci.ZeroPart(pdg.App), DB: ci.ZeroPart(pdg.DB)}
		h.objs[oid] = o
	} else if o.Class != ci {
		return nil, runErr("object %d is a %s, not a %s", oid, o.Class.Name, ci.Name)
	}
	return o, nil
}

// Array returns the array for oid.
func (h *Heap) Array(oid val.OID) (*Array, error) {
	if oid == 0 {
		return nil, runErr("null array dereference")
	}
	a, ok := h.arrs[oid]
	if !ok {
		return nil, runErr("array %d not present on this peer (missing sendNative?)", oid)
	}
	return a, nil
}

// Table returns the table for oid.
func (h *Heap) Table(oid val.OID) (*Table, error) {
	if oid == 0 {
		return nil, runErr("null table dereference")
	}
	t, ok := h.tabs[oid]
	if !ok {
		return nil, runErr("table %d not present on this peer (missing sendNative?)", oid)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Heap synchronization records
// ---------------------------------------------------------------------------

type syncKind uint8

const (
	syncObjPart syncKind = iota
	syncArray
	syncTable
)

// pendingSync identifies dirty heap state to ship on the next control
// transfer; payloads are serialized at transfer time so the latest
// values travel (eager batched updates, §3.2).
type pendingSync struct {
	kind syncKind
	oid  val.OID
	part pdg.Loc // for syncObjPart
}

// encodeSync serializes the pending set against the local heap: a
// count, then per record its kind and OID (uvarints) and payload. An
// object part travels as its class name, the part, a field mask and
// the fields in the mask — those this peer set since the part last
// synced, so a field the peer set in the meantime is not overwritten
// by an older value. A part with no field set does not travel. The
// marks stay until the sender knows the peer has the fields (synced).
func encodeSync(w *rpc.Writer, h *Heap, pend []pendingSync) {
	n := 0
	for _, ps := range pend {
		if ps.kind != syncObjPart || anyBit(*h.objs[ps.oid].setMask(ps.part)) {
			n++
		}
	}
	w.Uvarint(uint64(n))
	for _, ps := range pend {
		var o *Object
		if ps.kind == syncObjPart {
			if o = h.objs[ps.oid]; !anyBit(*o.setMask(ps.part)) {
				continue
			}
		}
		w.Byte(byte(ps.kind))
		w.Uvarint(uint64(ps.oid))
		switch ps.kind {
		case syncObjPart:
			w.Str(o.Class.Name)
			w.Byte(byte(ps.part))
			set, part := *o.setMask(ps.part), o.Part(ps.part)
			off := len(w.Buf)
			w.Buf = appendZeros(w.Buf, (len(part)+7)/8)
			for i, v := range part {
				if set[i>>6]&(1<<(uint(i)&63)) != 0 {
					w.Buf[off+i>>3] |= 1 << (uint(i) & 7)
					w.Val(v)
				}
			}
		case syncArray:
			a := h.arrs[ps.oid]
			w.Vals(a.Elems)
		case syncTable:
			dbapi.WriteResultSet(w, &h.tabs[ps.oid].ResultSet)
		}
	}
}

// synced clears the field marks of the object parts in pend, which a
// delivered transfer carried to the peer. A transfer that fails leaves
// them set, so the next sync of those parts ships the fields again.
func (h *Heap) synced(pend []pendingSync) {
	for _, ps := range pend {
		if ps.kind == syncObjPart {
			clear(*h.objs[ps.oid].setMask(ps.part))
		}
	}
}

// applySync installs received sync records into the local heap. An
// object part's fields are written one by one, only those in its mask,
// and this peer's own marks on them are cleared: the sender's values
// are the newer ones. A table is decoded into recycled memory. Counts are checked against the bytes left before they
// size anything (a record is at least two bytes).
func applySync(r *rpc.Reader, h *Heap, classes map[string]*compile.ClassInfo) error {
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(len(r.Buf)-r.Off)/2 {
		return badTransfer("%d sync records in %d bytes", n, len(r.Buf)-r.Off)
	}
	for i := uint64(0); i < n; i++ {
		kind := syncKind(r.Byte())
		oid := val.OID(r.Uvarint())
		if r.Err() != nil {
			return r.Err()
		}
		switch kind {
		case syncObjPart:
			name := r.StrBytes() // a lookup key only: the map copies nothing
			part := pdg.Loc(r.Byte())
			if r.Err() != nil {
				return r.Err()
			}
			ci := classes[string(name)]
			if ci == nil {
				return badTransfer("sync for unknown class %q", name)
			}
			if part != pdg.App && part != pdg.DB {
				return badTransfer("sync for part %d of %s", part, ci.Name)
			}
			o, err := h.Object(oid, ci)
			if err != nil {
				return err
			}
			fields, set := o.Part(part), *o.setMask(part)
			mask := readMask(r, len(fields))
			if r.Err() != nil {
				return r.Err()
			}
			if pad := len(fields) & 7; pad != 0 && mask[len(mask)-1]>>pad != 0 {
				return badTransfer("sync mask names a field past the %d of part %d of %s", len(fields), part, ci.Name)
			}
			for f := range fields {
				if mask[f>>3]&(1<<(uint(f)&7)) != 0 {
					fields[f] = r.Val()
					if set != nil {
						set[f>>6] &^= 1 << (uint(f) & 63)
					}
				}
			}
		case syncArray:
			h.arrs[oid] = &Array{Elems: r.Vals()}
		case syncTable:
			t := h.tabs[oid]
			if t == nil {
				t = h.takeTable()
				h.tabs[oid] = t
			}
			if err := dbapi.ReadResultSet(r, &t.ResultSet); err != nil {
				return err
			}
		default:
			return badTransfer("sync kind %d", kind)
		}
	}
	return r.Err()
}
