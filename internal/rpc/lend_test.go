package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// The lending rule (see Transport): CallInto reads a reply into the
// memory its caller lent when the reply fits, and touches that memory
// only until the call returns. The package's TestMain has
// ScribbleReleased on, so a lent buffer reads 0xFF from the moment it
// is given up.

// sameArray reports whether a and b start at the same array element.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

func TestMuxCallIntoLendsReply(t *testing.T) {
	echo := func(req []byte) ([]byte, error) { return req, nil }
	c, _ := pipeMux(t, HandlerFactory(func(uint32) Handler { return echo }))
	for _, tr := range []struct {
		name string
		t    lender
	}{{"mux", c.Session()}, {"inproc", NewInProc(echo, 0)}} {
		small := bytes.Repeat([]byte{'s'}, 100)
		into := make([]byte, 0, 128)
		resp, err := tr.t.CallInto(small, into)
		if err != nil || !bytes.Equal(resp, small) {
			t.Fatalf("%s: reply %q %v, want the request echoed", tr.name, resp, err)
		}
		if !sameArray(resp, into) {
			t.Errorf("%s: a 100-byte reply lent 128 bytes did not land in them", tr.name)
		}

		big := bytes.Repeat([]byte{'b'}, 300)
		resp, err = tr.t.CallInto(big, into)
		if err != nil || !bytes.Equal(resp, big) {
			t.Fatalf("%s: reply %q %v, want the request echoed", tr.name, resp, err)
		}
		if sameArray(resp, into) || cap(resp) != bodyCap(len(big)) {
			t.Errorf("%s: a 300-byte reply lent 128 bytes got cap %d (lent: %v), want a new %d", tr.name, cap(resp), sameArray(resp, into), bodyCap(len(big)))
		}
		if bytes.ContainsRune(into[:cap(into)], 'b') {
			t.Errorf("%s: a reply too large for the lent memory was written into it", tr.name)
		}

		// Memory above frameBufSize is not lent again: a caller keeps no
		// more than that between calls.
		huge := make([]byte, 0, frameBufSize+1)
		if resp, err = tr.t.CallInto(small, huge); err != nil || sameArray(resp, huge) {
			t.Errorf("%s: a reply lent %d bytes landed in them (%v)", tr.name, cap(huge), err)
		}
	}

	// A transport without CallInto, such as a wrapper, still answers
	// through rpc.CallInto, with a reply of its own.
	wrapped := struct{ Transport }{NewInProc(echo, 0)}
	into := make([]byte, 0, 64)
	resp, err := CallInto(wrapped, []byte("plain"), into)
	if err != nil || string(resp) != "plain" || sameArray(resp, into) {
		t.Errorf("CallInto over a wrapper: %q %v (lent: %v), want Call's own reply", resp, err, sameArray(resp, into))
	}
}

// TestMuxCallIntoConcurrent: calls on one session at once each lend
// their own last reply and each gets its own reply back intact.
func TestMuxCallIntoConcurrent(t *testing.T) {
	c, _ := pipeMux(t, HandlerFactory(func(uint32) Handler {
		return func(req []byte) ([]byte, error) { return req, nil }
	}))
	s := c.Session()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last []byte
			for k := 0; k < 200; k++ {
				req := []byte(fmt.Sprintf("goroutine %d call %d %s", g, k, strings.Repeat("x", k%50)))
				resp, err := s.CallInto(req, last)
				if err != nil || !bytes.Equal(resp, req) {
					t.Errorf("goroutine %d call %d: %q %v", g, k, resp, err)
					return
				}
				if k > 0 && !sameArray(resp, last) {
					t.Errorf("goroutine %d call %d: the reply left the memory its last one lent", g, k)
					return
				}
				last = resp
			}
		}(g)
	}
	wg.Wait()
}

// script is a hand-driven server end of a mux connection.
type script struct {
	t    *testing.T
	conn net.Conn
	fr   *framer
}

func scriptedSession(t *testing.T) (*MuxSession, *script) {
	srvConn, cliConn := net.Pipe()
	c := NewMuxClient(cliConn)
	t.Cleanup(func() { c.Close(); srvConn.Close() })
	return c.Session(), &script{t: t, conn: srvConn, fr: newFramer(srvConn)}
}

// next reads the next call; ok is false once the connection is gone.
func (sc *script) next() (muxFrame, bool) {
	f, err := sc.fr.readMuxFrame()
	return f, err == nil
}

func (sc *script) reply(call muxFrame, kind byte, body []byte) {
	if _, err := sc.fr.writeMux(muxFrame{sid: call.sid, rid: call.rid, kind: kind, body: body}); err != nil {
		sc.t.Errorf("script reply: %v", err)
	}
}

// head writes the head of an OK reply announcing n body bytes, and
// part of the body.
func (sc *script) head(call muxFrame, n int, part []byte) {
	b := FrameHead{Kind: muxReplyOK, SID: call.sid, RID: call.rid, Body: n}.Append(nil)
	b = append(b, part...)
	if _, err := sc.conn.Write(b); err != nil {
		sc.t.Errorf("script write: %v", err)
	}
}

// TestMuxCallIntoNoWriteAfterReturn: whatever ends a lending call — an
// OK reply, a remote error, a shed, a deadline with its reply
// straggling in later, or the connection dying mid-body — the transport
// writes nothing to the lent memory once the call has returned, and a
// connection that dies mid-body fails the call instead of hanging it.
func TestMuxCallIntoNoWriteAfterReturn(t *testing.T) {
	straggler := bytes.Repeat([]byte{'S'}, 100)
	within := func(d time.Duration) func(s *MuxSession, into []byte) ([]byte, error) {
		return func(s *MuxSession, into []byte) ([]byte, error) { return s.CallWithin([]byte("lent"), into, d) }
	}
	callInto := func(s *MuxSession, into []byte) ([]byte, error) { return s.CallInto([]byte("lent"), into) }
	for _, tc := range []struct {
		name string
		call func(s *MuxSession, into []byte) ([]byte, error)
		// answer answers the lending call; returned is closed once the
		// call has returned.
		answer func(sc *script, call muxFrame, returned <-chan struct{})
		check  func(resp, into []byte, err error) error
		dies   bool // the connection is gone after the call
	}{{
		name:   "ok reply",
		call:   callInto,
		answer: func(sc *script, call muxFrame, _ <-chan struct{}) { sc.reply(call, muxReplyOK, []byte("answer")) },
		check: func(resp, into []byte, err error) error {
			if err != nil || string(resp) != "answer" || !sameArray(resp, into) {
				return fmt.Errorf("%q %v (lent: %v), want answer in the lent memory", resp, err, sameArray(resp, into))
			}
			return nil
		},
	}, {
		name:   "remote error",
		call:   callInto,
		answer: func(sc *script, call muxFrame, _ <-chan struct{}) { sc.reply(call, muxReplyErr, []byte("boom")) },
		check: func(_, _ []byte, err error) error {
			if err == nil || !strings.Contains(err.Error(), "boom") {
				return fmt.Errorf("%v, want the remote error", err)
			}
			return nil
		},
	}, {
		name:   "shed",
		call:   callInto,
		answer: func(sc *script, call muxFrame, _ <-chan struct{}) { sc.reply(call, muxReplyShed, []byte("full")) },
		check: func(_, _ []byte, err error) error {
			if !errors.Is(err, ErrOverloaded) {
				return fmt.Errorf("%v, want ErrOverloaded", err)
			}
			return nil
		},
	}, {
		name: "deadline, reply straggles in",
		call: within(20 * time.Millisecond),
		answer: func(sc *script, call muxFrame, returned <-chan struct{}) {
			<-returned
			sc.reply(call, muxReplyOK, straggler)
		},
		check: wantDeadline,
	}, {
		name: "deadline mid-body, rest straggles in",
		call: within(50 * time.Millisecond),
		answer: func(sc *script, call muxFrame, returned <-chan struct{}) {
			sc.head(call, len(straggler), straggler[:10])
			<-returned
			if _, err := sc.conn.Write(straggler[10:]); err != nil {
				sc.t.Errorf("script write: %v", err)
			}
		},
		check: wantDeadline,
	}, {
		name: "connection dies mid-body",
		call: callInto,
		answer: func(sc *script, call muxFrame, _ <-chan struct{}) {
			sc.head(call, len(straggler), straggler[:10])
			sc.conn.Close()
		},
		check: wantFailed,
		dies:  true,
	}, {
		name: "connection dies mid-body, body beyond the read buffer",
		call: callInto,
		answer: func(sc *script, call muxFrame, _ <-chan struct{}) {
			sc.head(call, frameBufSize+100, bytes.Repeat([]byte{'S'}, frameBufSize/2))
			sc.conn.Close()
		},
		check: wantFailed,
		dies:  true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s, sc := scriptedSession(t)
			returned := make(chan struct{})
			served := make(chan struct{})
			go func() {
				defer close(served)
				call, ok := sc.next()
				if !ok {
					t.Error("script: no call arrived")
					return
				}
				tc.answer(sc, call, returned)
				if call, ok = sc.next(); ok { // the follow-up call
					sc.reply(call, muxReplyOK, []byte("follow-up"))
				}
			}()

			into := make([]byte, 0, 256)
			type result struct {
				resp []byte
				err  error
			}
			done := make(chan result, 1)
			go func() {
				resp, err := tc.call(s, into)
				done <- result{resp, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the lending call hangs")
			}
			if err := tc.check(res.resp, into, res.err); err != nil {
				t.Fatal(err)
			}
			held := bytes.Clone(into[:cap(into)])
			close(returned)

			// A follow-up call lends nothing. It is answered after anything
			// that straggled in for the first call, so once it returns the
			// read loop is done with that too.
			resp, err := s.CallInto([]byte("follow-up"), nil)
			if tc.dies {
				if err == nil {
					t.Errorf("a call after the connection died answered %q", resp)
				}
			} else if err != nil || string(resp) != "follow-up" {
				t.Errorf("follow-up call: %q %v", resp, err)
			}
			<-served
			if !bytes.Equal(into[:cap(into)], held) {
				t.Errorf("the lent memory changed after the call returned:\n%q\nwas\n%q", into[:cap(into)], held)
			}
		})
	}
}

func wantDeadline(_, _ []byte, err error) error {
	if !errors.Is(err, ErrCallDeadline) {
		return fmt.Errorf("%v, want ErrCallDeadline", err)
	}
	return nil
}

func wantFailed(resp, _ []byte, err error) error {
	if err == nil {
		return fmt.Errorf("answered %q on a connection that died mid-body, want an error", resp)
	}
	return nil
}
