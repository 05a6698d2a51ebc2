package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// shardMarkHandlers replies "<shard>:<payload>" so tests can verify a
// session's calls are served by the shard it was opened on.
type shardMarkHandlers struct{ shard int }

func (h shardMarkHandlers) Open(uint32) Handler {
	return func(req []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("%d:%s", h.shard, req)), nil
	}
}
func (h shardMarkHandlers) Closed(uint32) {}

// pipeShardedPool builds a sharded pool over in-process pipes, each
// shard served by its own demux loops with its own handlers. It returns the pool plus every connection's server pipe end
// keyed by shard, so tests can sever whole shards.
func pipeShardedPool(t *testing.T, shards, conns int) (*ShardedPool, [][]net.Conn) {
	t.Helper()
	srvEnds := make([][]net.Conn, shards)
	s, err := NewShardedPool(shards, conns, func(shard, _ int) (io.ReadWriteCloser, error) {
		srv, cli := net.Pipe()
		srvEnds[shard] = append(srvEnds[shard], srv)
		go ServeMuxConn(srv, shardMarkHandlers{shard: shard})
		return cli, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, srvEnds
}

// TestShardedPoolRoutesByShardIndex is the routing contract: a session
// opened on shard i is served by shard i's handlers, and out-of-range
// shards are rejected.
func TestShardedPoolRoutesByShardIndex(t *testing.T) {
	p, _ := pipeShardedPool(t, 3, 2)
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", p.NumShards())
	}

	for shard := 0; shard < 3; shard++ {
		s, err := p.Session(shard)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Call([]byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d:ping", shard); string(resp) != want {
			t.Errorf("shard %d call served as %q, want %q", shard, resp, want)
		}
	}

	for _, bad := range []int{-1, 3} {
		if _, err := p.Session(bad); err == nil {
			t.Errorf("out-of-range shard %d accepted", bad)
		}
	}
}

// TestShardedPoolDeadShardFailsAlone severs every connection of one
// shard: sessions there fail with ErrPoolPoisoned while the surviving
// shard keeps opening and serving sessions.
func TestShardedPoolDeadShardFailsAlone(t *testing.T) {
	p, srvEnds := pipeShardedPool(t, 2, 2)

	for _, srv := range srvEnds[0] {
		srv.Close()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < p.ConnsPerShard(); i++ {
		for p.Conn(0, i).Err() == nil {
			select {
			case <-deadline:
				t.Fatalf("shard 0 conn %d never poisoned", i)
			case <-time.After(time.Millisecond):
			}
		}
	}

	if _, err := p.Session(0); !errors.Is(err, ErrPoolPoisoned) {
		t.Fatalf("dead shard returned %v, want ErrPoolPoisoned", err)
	}
	s, err := p.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := s.Call([]byte("alive")); err != nil || string(resp) != "1:alive" {
		t.Fatalf("surviving shard broken: %q %v", resp, err)
	}
}

// TestShardedPoolConstruction covers the error paths: zero shards and
// a mid-construction dial failure closing the shards already opened.
func TestShardedPoolConstruction(t *testing.T) {
	if _, err := NewShardedPool(0, 1, nil); err == nil {
		t.Error("0-shard pool accepted")
	}

	var opened []net.Conn
	_, err := NewShardedPool(3, 1, func(shard, _ int) (io.ReadWriteCloser, error) {
		if shard == 2 {
			return nil, fmt.Errorf("boom")
		}
		srv, cli := net.Pipe()
		go ServeMuxConn(srv, &echoHandlers{})
		opened = append(opened, cli)
		return cli, nil
	})
	if err == nil {
		t.Fatal("partial dial failure not surfaced")
	}
	for i, c := range opened {
		c.SetWriteDeadline(time.Now().Add(time.Second))
		if _, werr := c.Write([]byte("x")); werr == nil {
			t.Errorf("shard %d conn left open after failed construction", i)
		}
	}
}
