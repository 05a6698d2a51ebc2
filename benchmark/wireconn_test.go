package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted
}

func TestWireConnDelaysCountsAndKeepsOrder(t *testing.T) {
	const (
		chunks   = 200
		chunkLen = 8
		oneWay   = 20 * time.Millisecond
	)
	a, b := tcpPair(t)
	var ctr wireCounters
	delay := new(atomic.Int64)
	delay.Store(int64(oneWay))
	sender := newWireConn(a, &ctr, delay)
	defer sender.Close()
	defer b.Close()

	sent := make([]time.Time, chunks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, chunkLen) // reused: the conn must copy what it queues
		for i := 0; i < chunks; i++ {
			binary.LittleEndian.PutUint64(buf, uint64(i))
			sent[i] = time.Now()
			if n, err := sender.Write(buf); n != chunkLen || err != nil {
				t.Errorf("write %d: n=%d err=%v", i, n, err)
				return
			}
		}
	}()
	buf := make([]byte, chunkLen)
	for i := 0; i < chunks; i++ {
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		arrived := time.Now()
		if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
			t.Fatalf("chunk %d arrived in position %d", got, i)
		}
		wg.Wait() // sent[i] is written; after the first chunk this returns at once
		if early := oneWay - arrived.Sub(sent[i]); early > 0 {
			t.Errorf("chunk %d arrived %v before its one-way delay of %v had passed", i, early, oneWay)
		}
	}
	if s := ctr.snapshot(); s.writes != chunks || s.bytesWritten != chunks*chunkLen || s.reads != 0 {
		t.Errorf("counters = %+v, want %d writes of %d bytes and no reads", s, chunks, chunkLen)
	}
}

func TestWireConnUndelayedPassesThroughAndCountsReads(t *testing.T) {
	a, b := tcpPair(t)
	var ctr wireCounters
	left, right := newWireConn(a, &ctr, nil), newWireConn(b, &ctr, nil)
	defer left.Close()
	defer right.Close()
	msg := []byte("fourteen bytes")
	if _, err := left.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(right, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("read %q, wrote %q", got, msg)
	}
	s := ctr.snapshot()
	if s.writes != 1 || s.bytesWritten != int64(len(msg)) || s.bytesRead != int64(len(msg)) || s.reads < 1 {
		t.Errorf("counters = %+v", s)
	}
}

func TestWireConnShorterDelayDoesNotReorder(t *testing.T) {
	a, b := tcpPair(t)
	var ctr wireCounters
	delay := new(atomic.Int64)
	delay.Store(int64(30 * time.Millisecond))
	sender := newWireConn(a, &ctr, delay)
	defer sender.Close()
	defer b.Close()
	if _, err := sender.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	delay.Store(0) // the second chunk is due before the first
	if _, err := sender.Write([]byte{2}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("bytes arrived as %v, want [1 2]", got)
	}
}
