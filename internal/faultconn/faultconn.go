// Package faultconn wraps a connection for tests and benchmarks: it
// counts the Read and Write calls made on it (on a raw net.Conn each is
// one syscall) and the bytes they moved, and can fail a chosen Write —
// the k-th, or the first one after some condition holds — letting only
// a prefix of it through, which is how a frame is torn in the middle.
package faultconn

import (
	"errors"
	"io"
	"sync/atomic"
)

// ErrInjected is the error of a Write that Fail chose.
var ErrInjected = errors.New("faultconn: injected write failure")

// Conn is one wrapped connection end. Set Fail before use.
type Conn struct {
	io.ReadWriteCloser

	// Fail, when non-nil, is asked before every Write, with the write's
	// 1-based index and its bytes. Returning fail=true forwards only the
	// first keep bytes and fails the Write with ErrInjected. The
	// connection stays open, as after a write deadline or a short
	// write; to sever it instead, Fail closes it.
	Fail func(k int, p []byte) (keep int, fail bool)

	writes, reads           atomic.Int64
	bytesWritten, bytesRead atomic.Int64
}

// New wraps conn with no fault configured.
func New(conn io.ReadWriteCloser) *Conn { return &Conn{ReadWriteCloser: conn} }

// Writes returns the number of Write calls made so far.
func (c *Conn) Writes() int64 { return c.writes.Load() }

// Reads returns the number of Read calls made so far.
func (c *Conn) Reads() int64 { return c.reads.Load() }

// BytesWritten returns the bytes Write has passed on so far.
func (c *Conn) BytesWritten() int64 { return c.bytesWritten.Load() }

// BytesRead returns the bytes Read has returned so far.
func (c *Conn) BytesRead() int64 { return c.bytesRead.Load() }

func (c *Conn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	n, err := c.ReadWriteCloser.Read(p)
	c.bytesRead.Add(int64(n))
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	k := int(c.writes.Add(1))
	if c.Fail != nil {
		if keep, fail := c.Fail(k, p); fail {
			n := 0
			if keep > 0 {
				n, _ = c.ReadWriteCloser.Write(p[:min(keep, len(p))])
			}
			c.bytesWritten.Add(int64(n))
			return n, ErrInjected
		}
	}
	n, err := c.ReadWriteCloser.Write(p)
	c.bytesWritten.Add(int64(n))
	return n, err
}
