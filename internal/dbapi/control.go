package dbapi

// Program is a control op, not a statement: a dialer asks the server
// which program it serves before it opens any client session, so the
// call is bounded — the one call in the tree that is. Over a transport
// with CallWithin (the mux wire) a stalled peer answers
// rpc.ErrCallDeadline and a dead one an error matching
// rpc.ErrPoolPoisoned, so neither can wedge the dialer.

import (
	"time"

	"pyxis/internal/rpc"
)

// callWithin sends the request in c.enc bounded by
// rpc.DefaultCallDeadline where the transport can bound a call, and as a
// plain call elsewhere.
func (c *Client) callWithin() (*rpc.Reader, error) {
	t, ok := c.T.(interface {
		CallWithin(req, into []byte, timeout time.Duration) ([]byte, error)
	})
	if !ok {
		return c.call()
	}
	resp, err := t.CallWithin(c.request(), c.dec.Buf, 0)
	return c.reply(resp, err)
}

// Program returns the bytes that describe the program the server serves
// (empty when it serves none), bounded by rpc.DefaultCallDeadline.
func (c *Client) Program() ([]byte, error) {
	c.enc.Reset()
	c.enc.Byte(opProgram)
	r, err := c.callWithin()
	if err != nil {
		return nil, err
	}
	prog := []byte(r.Str())
	return prog, r.Err()
}
