package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// wireCounters totals the traffic of every wireConn that shares it.
// Write and Read calls on a raw net.Conn are one syscall each, so the
// call counts stand in for syscalls.
type wireCounters struct {
	writes, reads           atomic.Int64
	bytesWritten, bytesRead atomic.Int64
}

type wireSnapshot struct {
	writes, reads, bytesWritten, bytesRead int64
}

func (c *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{
		writes:       c.writes.Load(),
		reads:        c.reads.Load(),
		bytesWritten: c.bytesWritten.Load(),
		bytesRead:    c.bytesRead.Load(),
	}
}

// wireConn is the benchmark's view of one end of a connection: it
// counts every Read and Write the program makes and, when built with
// a pump, holds each written chunk back by the current one-way delay.
// The delay is latency, not bandwidth: chunks queue with their own due
// time and one pump goroutine forwards them in order, so a sender
// never waits for an earlier chunk's delay.
type wireConn struct {
	inner io.ReadWriteCloser
	ctr   *wireCounters

	// Delayed conns only. delay is the one-way delay in nanoseconds,
	// shared by every conn of a deployment so one store changes all.
	delay   *atomic.Int64
	mu      sync.Mutex
	queue   []wireChunk
	err     error         // sticky pump write error
	wake    chan struct{} // capacity 1: a pending wake-up is enough
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once
}

type wireChunk struct {
	due  time.Time
	data []byte
}

// newWireConn wraps inner. With delay non-nil, writes go through the
// delay queue and are held back by *delay, read at each Write. Chunks
// keep their order, so shortening the delay while chunks are queued
// cannot reorder them.
func newWireConn(inner io.ReadWriteCloser, ctr *wireCounters, delay *atomic.Int64) *wireConn {
	c := &wireConn{inner: inner, ctr: ctr, delay: delay}
	if delay != nil {
		c.wake = make(chan struct{}, 1)
		c.stop = make(chan struct{})
		c.stopped = make(chan struct{})
		go c.pump()
	}
	return c
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.ctr.reads.Add(1)
	c.ctr.bytesRead.Add(int64(n))
	return n, err
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.ctr.writes.Add(1)
	c.ctr.bytesWritten.Add(int64(len(p)))
	if c.delay == nil {
		return c.inner.Write(p)
	}
	chunk := wireChunk{
		due:  time.Now().Add(time.Duration(c.delay.Load())),
		data: append([]byte(nil), p...), // the caller may reuse p
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.queue = append(c.queue, chunk)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *wireConn) pump() {
	defer close(c.stopped)
	for {
		c.mu.Lock()
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()
		for _, ch := range batch {
			if wait := time.Until(ch.due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-c.stop:
					t.Stop()
					return
				}
			}
			if _, err := c.inner.Write(ch.data); err != nil {
				c.mu.Lock()
				c.err = err
				c.queue = nil
				c.mu.Unlock()
				return
			}
		}
		if len(batch) > 0 {
			continue
		}
		select {
		case <-c.wake:
		case <-c.stop:
			return
		}
	}
}

// Close closes the wrapped connection and, for a pumped conn, waits
// for the pump to exit; chunks still queued are dropped.
func (c *wireConn) Close() error {
	err := c.inner.Close()
	if c.delay != nil {
		c.once.Do(func() { close(c.stop) })
		<-c.stopped
	}
	return err
}
