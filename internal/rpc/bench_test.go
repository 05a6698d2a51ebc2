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
// and eight sharing the connection, and the raw-TCP round trip under
// it (BenchmarkTCPFloor). Besides ns/op and allocs/op each
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
							var resp []byte
							for k := 0; k < n; k++ {
								var err error
								if resp, err = s.CallInto(payload, resp); err != nil {
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

// BenchmarkTCPFloor is the floor under MuxEcho/tcp/64B/1sess: the same
// round trip, a frame of the same size each way over loopback TCP, with
// no mux. One goroutine writes a frame and reads its echo whole, and
// one echo goroutine reads each frame whole and writes it back. What
// MuxEcho costs above it is framing, demux and session dispatch.
func BenchmarkTCPFloor(b *testing.B) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	const body = 64
	frame := make([]byte, len(FrameHead{Kind: muxCall, SID: 1, RID: 1, Body: body}.Append(nil))+body)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, len(frame))
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	reply := make([]byte, len(frame))
	b.SetBytes(2 * body)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocCeilings pins what a mux round trip costs in allocations
// and connection writes, both ends together. A round trip that lends
// its last reply (CallInto) allocates nothing: request bodies are
// recycled, frames are assembled in the connection's write buffer, a
// session keeps its waiter, and the reply lands in the lent memory.
// Call lends nothing, so its reply is the one allocation it makes.
func TestAllocCeilings(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		l := newEchoLink(t, tcp)
		s := l.c.Session()
		payload := make([]byte, 64)
		var resp []byte
		for _, tc := range []struct {
			name    string
			ceiling float64
			call    func() ([]byte, error)
		}{
			{"Call", 2, func() ([]byte, error) { return s.Call(payload) }},
			{"CallInto", 0, func() ([]byte, error) { return s.CallInto(payload, resp) }},
		} {
			call := func() {
				var err error
				if resp, err = tc.call(); err != nil {
					t.Fatal(err)
				}
			}
			call() // opens the session, sizes the pooled body
			const runs = 200
			w0 := l.writes()
			allocs := testing.AllocsPerRun(runs, call)
			writes := float64(l.writes()-w0) / (runs + 1) // AllocsPerRun warms up once
			name := map[bool]string{false: "pipe", true: "tcp"}[tcp]
			if allocs > tc.ceiling {
				t.Errorf("%s: mux echo %s makes %.1f allocs, ceiling %.0f", name, tc.name, allocs, tc.ceiling)
			}
			if writes != 2 {
				t.Errorf("%s: mux echo %s makes %.2f writes, want exactly 2 (one per frame per end)", name, tc.name, writes)
			}
		}
		l.close()
	}
}
