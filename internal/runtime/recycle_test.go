package runtime

import (
	"errors"
	"strings"
	"testing"

	"pyxis/internal/compile"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestRecycledTableScribbled: the sweep hands a dead table to the
// heap's free list and the next query fills that same memory. A row
// held past the sweep reads garbage (the package's TestMain turns
// rpc.ScribbleReleased on, and val.Released with it), and a table that
// arrives by table sync is decoded into recycled memory too, keeping
// the column names when they match.
func TestRecycledTableScribbled(t *testing.T) {
	db := sqldb.Open()
	setup := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(8))",
		"INSERT INTO kv VALUES (1, 'one')",
		"INSERT INTO kv VALUES (2, 'two')",
	} {
		if _, err := setup.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	conn := dbapi.NewLocal(db)
	sn := NewPeer(LoopProgram(t), pdg.DB, nil).NewSession(conn)
	query := func(k int64) *Table {
		t.Helper()
		tab := sn.Heap.takeTable()
		if err := conn.QueryInto(&tab.ResultSet, 0, "SELECT v FROM kv WHERE k <= ? ORDER BY k", val.IntV(k)); err != nil {
			t.Fatal(err)
		}
		sn.Heap.putTable(tab)
		return tab
	}

	first := query(2)
	held := first.Rows[1]
	sn.liveTabs = sn.liveTabs[:0]
	sn.sweepTables()
	if held[0].K == val.Str {
		t.Fatalf("a row of a swept table still reads %v", held[0])
	}
	second := query(1)
	if second != first || len(second.Rows) != 1 || second.Rows[0][0] != val.StrV("one") {
		t.Fatalf("the next query got table %p %v, want the swept %p refilled with one", second, second.Rows, first)
	}

	// A synced table lands in the table the sweep freed, with the same
	// column slice.
	cols := second.Cols
	sn.sweepTables()
	var w rpc.Writer
	w.Uvarint(1)
	w.Byte(byte(syncTable))
	w.Uvarint(uint64(sn.Heap.alloc()))
	dbapi.WriteResultSet(&w, &sqldb.ResultSet{Cols: []string{"V"}, Rows: [][]val.Value{{val.StrV("synced")}}})
	if err := applySync(&rpc.Reader{Buf: w.Buf}, sn.Heap, nil); err != nil {
		t.Fatal(err)
	}
	for _, got := range sn.Heap.tabs {
		if got != first || len(got.Rows) != 1 || got.Rows[0][0] != val.StrV("synced") {
			t.Fatalf("synced table %p %v, want the swept %p holding synced", got, got.Rows, first)
		}
		if &got.Cols[0] != &cols[0] {
			t.Errorf("the synced table's column names %v were allocated again", got.Cols)
		}
	}
}

// TestApplySyncLooksUpClassInPlace: an object part's class name is a
// map key only, so applySync looks it up from the transfer's bytes and
// copies nothing; the name is copied only into the error for a class
// this peer does not know.
func TestApplySyncLooksUpClassInPlace(t *testing.T) {
	ci := &compile.ClassInfo{Name: "Account", NumApp: 1}
	classes := map[string]*compile.ClassInfo{ci.Name: ci}
	h := NewHeap(pdg.DB)
	record := func(class string) []byte {
		var w rpc.Writer
		w.Uvarint(1)
		w.Byte(byte(syncObjPart))
		w.Uvarint(1)
		w.Str(class)
		w.Byte(byte(pdg.App))
		w.Byte(1) // field 0 is in the mask
		w.Val(val.IntV(7))
		return w.Buf
	}
	buf := record(ci.Name)
	apply := func() {
		if err := applySync(&rpc.Reader{Buf: buf}, h, classes); err != nil {
			t.Fatal(err)
		}
	}
	apply() // materializes the object
	if got := testing.AllocsPerRun(100, apply); got != 0 {
		t.Errorf("applying an object part's sync allocates %.1f times, want 0", got)
	}
	if got := h.objs[1].App[0]; got != val.IntV(7) {
		t.Errorf("synced field reads %v, want 7", got)
	}
	err := applySync(&rpc.Reader{Buf: record("Nobody")}, h, classes)
	if !errors.Is(err, ErrBadTransfer) || !strings.Contains(err.Error(), `"Nobody"`) {
		t.Errorf("unknown class: %v, want ErrBadTransfer naming it", err)
	}
}
