package runtime_test

import (
	"testing"

	"pyxis/internal/bench"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
)

// sizeWatch records the size of every control transfer and its reply,
// and the strings each request's stack carries to the DB session.
type sizeWatch struct {
	rpc.Transport
	t       *testing.T
	db      *runtime.Session
	sizes   [][2]int
	strings int
}

func (w *sizeWatch) Call(req []byte) ([]byte, error) {
	strs, err := w.db.ShippedStrings(req)
	if err != nil {
		w.t.Fatalf("transfer %d does not decode: %v", len(w.sizes), err)
	}
	w.strings += len(strs)
	resp, err := w.Transport.Call(req)
	w.sizes = append(w.sizes, [2]int{len(req), len(resp)})
	return resp, err
}

// TestBestSellersTransferBytes pins the bytes TPC-W's bestSellers moves
// per control transfer at budget 0.5, where its loop makes a round trip
// per author lookup while the APP builds the page. The DB side of the
// loop never reads the page string, so no string slot goes APP→DB.
func TestBestSellersTransferBytes(t *testing.T) {
	cfg := bench.DefaultTPCW()
	part, err := cfg.PyxisPartition(0.5)
	if err != nil {
		t.Fatal(err)
	}
	dep := part.Deploy(cfg.Load(), runtime.Options{})
	defer dep.Client.Close()
	w := &sizeWatch{Transport: dep.Client.Remote, t: t, db: dep.Sessions.Hosted()[0]}
	dep.Client.Remote = w
	obj, err := dep.Client.NewObject("TPCW")
	if err != nil {
		t.Fatal(err)
	}
	w.sizes = nil
	if _, err := dep.Client.CallEntry("TPCW.bestSellers", obj); err != nil {
		t.Fatal(err)
	}
	// The first transfer carries the new frame and brings back the twenty
	// best sellers; every later one shares the frame, ships the loop
	// counter (the second also the page counter the APP bumped) and
	// brings back one author's name.
	want := [][2]int{{35, 889}, {47, 65}}
	for i := 2; i < 21; i++ {
		want = append(want, [2]int{26, 65})
	}
	want[7][1], want[8][1] = 64, 64 // two shorter author names
	if len(w.sizes) != len(want) {
		t.Fatalf("%d transfers, want %d: %v", len(w.sizes), len(want), w.sizes)
	}
	for i := range want {
		if w.sizes[i] != want[i] {
			t.Errorf("transfer %d: %d bytes out, %d back; want %d, %d", i, w.sizes[i][0], w.sizes[i][1], want[i][0], want[i][1])
		}
	}
	if w.strings != 0 {
		t.Errorf("%d string slots went APP→DB; the DB side of the loop reads none", w.strings)
	}
}
