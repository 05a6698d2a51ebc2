package dbapi

import (
	"os"
	"testing"

	"pyxis/internal/rpc"
)

// TestMain runs the whole package under rpc's ownership-rule hook:
// every recycled wire buffer (request body, encode buffer, handler
// reply) is overwritten the moment it is released, so a reference kept
// past its owner's release reads 0xFF in these suites — differential,
// prepared-statement, 2PC, fence and migration — instead of passing on
// stale bytes.
func TestMain(m *testing.M) {
	rpc.ScribbleReleased(true)
	os.Exit(m.Run())
}
