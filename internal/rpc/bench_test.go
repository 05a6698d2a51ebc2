package rpc

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"pyxis/internal/faultconn"
)

// Layer benchmarks for the mux: one echo round trip over an in-memory
// pipe and over loopback TCP, small and page-sized bodies, one session
// and eight sharing the connection. Besides ns/op and allocs/op each
// reports the Write and Read calls both ends made per round trip — on
// a raw net.Conn one syscall each. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/rpc/
//
// TestAllocCeilings below enforces the allocation and write counts in
// tier-1.

// echoLink is an echo server and a mux client joined by conn ends
// wrapped in counting conns.
type echoLink struct {
	c        *MuxClient
	cli, srv *faultconn.Conn
	done     chan struct{}
}

func (l *echoLink) close() {
	l.c.Close()
	<-l.done
}

func (l *echoLink) writes() int64 { return l.cli.Writes() + l.srv.Writes() }
func (l *echoLink) reads() int64  { return l.cli.Reads() + l.srv.Reads() }

var echoFactory = HandlerFactory(func(uint32) Handler {
	return func(req []byte) ([]byte, error) { return req, nil }
})

func newEchoLink(tb testing.TB, tcp bool) *echoLink {
	tb.Helper()
	var srvEnd, cliEnd io.ReadWriteCloser
	if tcp {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		defer lis.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, _ := lis.Accept()
			accepted <- conn
		}()
		if cliEnd, err = net.Dial("tcp", lis.Addr().String()); err != nil {
			tb.Fatal(err)
		}
		conn := <-accepted
		if conn == nil {
			tb.Fatal("accept failed")
		}
		srvEnd = conn
	} else {
		srvEnd, cliEnd = net.Pipe()
	}
	l := &echoLink{cli: faultconn.New(cliEnd), srv: faultconn.New(srvEnd), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		defer l.srv.Close()
		ServeMuxConn(l.srv, echoFactory)
	}()
	l.c = NewMuxClient(l.cli)
	return l
}

func BenchmarkMuxEcho(b *testing.B) {
	defer ScribbleReleased(ScribbleReleased(false))
	for _, wire := range []string{"pipe", "tcp"} {
		for _, size := range []int{64, 4 << 10} {
			for _, sessions := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/%dB/%dsess", wire, size, sessions), func(b *testing.B) {
					l := newEchoLink(b, wire == "tcp")
					defer l.close()
					sess := make([]*MuxSession, sessions)
					for i := range sess {
						sess[i] = l.c.Session()
						if _, err := sess[i].Call(make([]byte, size)); err != nil { // opens the session
							b.Fatal(err)
						}
					}
					w0, r0 := l.writes(), l.reads()
					b.SetBytes(int64(2 * size))
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for i, s := range sess {
						n := b.N / sessions
						if i < b.N%sessions {
							n++
						}
						wg.Add(1)
						go func(s *MuxSession, n int) {
							defer wg.Done()
							payload := make([]byte, size)
							for k := 0; k < n; k++ {
								if _, err := s.Call(payload); err != nil {
									b.Error(err)
									return
								}
							}
						}(s, n)
					}
					wg.Wait()
					b.StopTimer()
					b.ReportMetric(float64(l.writes()-w0)/float64(b.N), "writes/op")
					b.ReportMetric(float64(l.reads()-r0)/float64(b.N), "reads/op")
				})
			}
		}
	}
}

// TestAllocCeilings pins what a mux round trip costs in allocations
// and connection writes, both ends together. The allocation that stays
// is the caller's reply body; request bodies are recycled, frames are
// assembled in the connection's write buffer, and a session keeps its
// reply channel.
func TestAllocCeilings(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		l := newEchoLink(t, tcp)
		s := l.c.Session()
		payload := make([]byte, 64)
		call := func() {
			if _, err := s.Call(payload); err != nil {
				t.Fatal(err)
			}
		}
		call() // opens the session, sizes the pooled body
		const runs = 200
		w0 := l.writes()
		allocs := testing.AllocsPerRun(runs, call)
		writes := float64(l.writes()-w0) / (runs + 1) // AllocsPerRun warms up once
		name := map[bool]string{false: "pipe", true: "tcp"}[tcp]
		if allocs > 2 {
			t.Errorf("%s: mux echo round trip makes %.1f allocs, ceiling 2", name, allocs)
		}
		if writes != 2 {
			t.Errorf("%s: mux echo round trip makes %.2f writes, want exactly 2 (one per frame per end)", name, writes)
		}
		l.close()
	}
}
