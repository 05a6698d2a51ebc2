package verify

import (
	"sort"

	"pyxis/internal/compile"
	"pyxis/internal/source"
	"pyxis/internal/val"
)

const heapTable = "a table held in the heap outlives the call that may read it"

// scope checks that a table reference can sit only in a frame slot:
// no field, and no array however deeply nested, has the table type.
// The runtime frees a query result once no live slot of the stack it
// ships names it (runtime.Session.sweepTables); a reference parked in
// the heap would outlive its table and fail on the next call that
// read it. source.Check rejects such a program; this restates the rule
// over what the runtime actually executes, the class table and the
// instructions' own field references and array zeroes.
func (v *checker) scope() {
	names := make([]string, 0, len(v.p.Classes))
	for name := range v.p.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, f := range v.p.Classes[name].Fields {
			if holdsTable(f.Type) {
				v.addf(CheckScope, nil, compile.NoBlock,
					"field %s.%s has type %s — %s", name, f.Name, f.Type, heapTable)
			}
		}
	}
	for _, b := range v.p.Blocks {
		for i := range b.Code {
			in := &b.Code[i]
			switch in.Op {
			case compile.OpGetField, compile.OpSetField:
				if in.Field != nil && holdsTable(in.Field.Type) {
					v.addf(CheckScope, v.methodOf[b.ID], b.ID,
						"instr %d (%s) moves a %s through field %s — %s",
						i, opName(in.Op), in.Field.Type, in.Field.Name, heapTable)
				}
			case compile.OpNewArr:
				if in.Lit.K == val.Table {
					v.addf(CheckScope, v.methodOf[b.ID], b.ID,
						"instr %d allocates an array of tables — %s", i, heapTable)
				}
			}
		}
	}
}

// holdsTable reports whether t is table or an array of it, at any depth.
func holdsTable(t source.Type) bool {
	for t.K == source.KArray && t.Elem != nil {
		t = *t.Elem
	}
	return t.K == source.KTable
}
