package main

import (
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	//  root        [0,100]
	//    a         [10,40]
	//      a1      [15,20]
	//    b         [30,60]   overlaps a
	//    c         [70,80]
	//    d         [90,120]  runs past its parent: clipped to [90,100]
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 15, end: 20, parent: 1},
		{start: 30, end: 60, parent: 0},
		{start: 70, end: 80, parent: 0},
		{start: 90, end: 120, parent: 0},
	}
	// The root's children cover [10,60] ∪ [70,80] ∪ [90,100] = 70.
	want := []int64{30, 25, 5, 30, 10, 30}
	got := selfTimes(spans, 0, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	// The same tree as the tail of a longer span array: parents are
	// absolute indices, base shifts them.
	shifted := append([]span(nil), spans...)
	for i := range shifted {
		if shifted[i].parent >= 0 {
			shifted[i].parent += 7
		}
	}
	got = selfTimes(shifted, 7, got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("with base 7, self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsAndSummarizes(t *testing.T) {
	tr, err := newTracer(time.Now(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.release()
	if i := tr.begin(spTxn, 0); i != -1 {
		t.Fatalf("a tracer that is off recorded span %d", i)
	}
	tr.setOn(true)
	for txn := 0; txn < 3; txn++ {
		class := heavy
		if txn == 2 {
			class = light
		}
		root := tr.beginTxn(class)
		call := tr.begin(spRPCCtl, 0)
		srv := tr.begin(spRuntimeDB, 0)
		for k := 0; k < 2; k++ {
			st := tr.begin(spSQLLocal, uint8(kindSelect))
			tr.end(st)
		}
		tr.end(srv)
		tr.end(call)
		tr.end(root)
	}
	if len(tr.spans) != 15 {
		t.Fatalf("recorded %d spans, want 15", len(tr.spans))
	}
	for i, sp := range tr.spans {
		wantParent := [5]int32{-1, 0, 1, 2, 2}[i%5]
		if wantParent >= 0 {
			wantParent += int32(i / 5 * 5)
		}
		if sp.parent != wantParent || sp.txn != uint32(i/5+1) || sp.end < sp.start {
			t.Errorf("span %d = %+v, want parent %d txn %d", i, sp, wantParent, i/5+1)
		}
	}
	sum := summarizeTraces([]*tracer{tr})
	if sum.Txns != 3 || sum.ByName[spSQLLocal].N != 6 || sum.SQLKind[kindSelect].N != 6 || sum.ByName[spRPCCtl].N != 3 {
		t.Errorf("summary counts = %+v", sum)
	}
	if sum.MaxSelfSumErr != 0 {
		t.Errorf("nested spans' self times miss the transaction time by %v", sum.MaxSelfSumErr)
	}
	if sum.HeavyRoundTripsP50 != 1 {
		t.Errorf("heavy round trips p50 = %v, want 1", sum.HeavyRoundTripsP50)
	}
	var self, dur int64
	for _, st := range sum.ByName {
		self += st.Self
	}
	dur = sum.ByName[spTxn].Dur
	if self != dur {
		t.Errorf("self times add up to %d ns, transactions to %d ns", self, dur)
	}

	// Capacity: spans beyond it are dropped and counted, not written.
	small, err := newTracer(time.Now(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer small.release()
	small.setOn(true)
	a, b, c := small.begin(spTxn, 0), small.begin(spRPCCtl, 0), small.begin(spRuntimeDB, 0)
	small.end(c)
	small.end(b)
	small.end(a)
	if c != -1 || small.dropped != 1 || len(small.spans) != 2 {
		t.Errorf("full tracer: third span %d, dropped %d, kept %d", c, small.dropped, len(small.spans))
	}
}

func TestKindOfSQL(t *testing.T) {
	for sql, want := range map[string]stmtKind{
		"SELECT 1": kindSelect, "select 1": kindSelect, "UPDATE t SET a = 1": kindUpdate,
		"INSERT INTO t VALUES (1)": kindInsert, "DELETE FROM t": kindDelete, "CREATE TABLE t (a INT)": kindOther, "": kindOther,
	} {
		if got := kindOfSQL(sql); got != want {
			t.Errorf("kindOfSQL(%q) = %v, want %v", sql, stmtKindNames[got], stmtKindNames[want])
		}
	}
}
