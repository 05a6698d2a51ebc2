package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
)

// This file is the tests' one goroutine fan-out: drive starts a client
// per goroutine, each opens its session (a shed Open is retried with
// RetryOverloaded) and runs its transactions, retry decides what each
// failed attempt means, and count is what the clients did. What differs
// between two tests is the tier they stand up and the step their
// clients run, which live beside the tests.

const (
	// maxRetries bounds deadlock-victim retries per transaction. Every
	// victim abort implies another transaction progressed, so retries
	// converge; the bound guards against a livelocked engine.
	maxRetries = 50
	// openTimeout bounds how long one client keeps retrying a shed Open.
	openTimeout = 120 * time.Second
)

// errClass is what a failed attempt means for its transaction.
type errClass int

const (
	classFatal    errClass = iota // fail the run
	classDeadlock                 // victim abort: rolled back engine-side, run it again
)

// isDeadlockErr matches a deadlock abort whether it surfaces as the
// sqldb sentinel (APP-side statements over the database wire) or as a
// remote runtime error string (DB-side statements inside a control
// transfer).
func isDeadlockErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "deadlock")
}

// retry maps the error of a transaction's attempt-th budgeted retry to
// its class. A shed is fatal here: a gated server refuses only session
// opens, which runClient retries.
func retry(err error, attempt int) errClass {
	switch {
	case attempt >= maxRetries:
		return classFatal
	case isDeadlockErr(err):
		return classDeadlock
	}
	return classFatal
}

// session is one client's open state.
type session interface{ Close() error }

// txnKind is the class a completed transaction is counted under.
type txnKind int

const (
	kindNewOrder txnKind = iota
	kindPayment
	kindRead
	kindDeposit
	numKinds
)

// txnOut says what one completed transaction was.
type txnOut struct {
	kind   txnKind
	remote bool // the remote-warehouse roll fired
}

// count is what one client did, or, summed, what a run did.
type count struct {
	txns, sheds   int
	kinds, remote [numKinds]int
}

func (c *count) record(o txnOut) {
	c.txns++
	c.kinds[o.kind]++
	if o.remote {
		c.remote[o.kind]++
	}
}

// driven is one drive call's outcome: a count per client and the wall
// time they took.
type driven struct {
	clients []count
	elapsed time.Duration
}

// total sums the clients' counts.
func (d driven) total() (sum count) {
	for _, c := range d.clients {
		sum.txns += c.txns
		sum.sheds += c.sheds
		for k := range numKinds {
			sum.kinds[k] += c.kinds[k]
			sum.remote[k] += c.remote[k]
		}
	}
	return sum
}

// tput is completed transactions per second of wall time.
func (d driven) tput() float64 { return float64(d.total().txns) / d.elapsed.Seconds() }

// drive runs clients concurrent clients, each its own goroutine with
// its own session from open(i), through txns transactions each. step
// makes one attempt at client i's k-th transaction, a pure schedule of
// (i, k); retry decides what a failed attempt means.
func drive[S session](clients, txns int, open func(i int) (S, error), step func(s S, i, k int) (txnOut, error)) (driven, error) {
	out := driven{clients: make([]count, clients)}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runClient(&out.clients[i], i, txns, open, step); err != nil {
				errs[i] = fmt.Errorf("client %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out, errors.Join(errs...)
}

// runClient is client i's loop: open, then txns transactions, each
// attempted until it completes or retry says stop.
func runClient[S session](c *count, i, txns int, open func(i int) (S, error), step func(s S, i, k int) (txnOut, error)) error {
	var s S
	sheds, err := runtime.RetryOverloaded(openTimeout, func() (err error) {
		s, err = open(i)
		return err
	})
	c.sheds += int(sheds)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer s.Close()
	for k := range txns {
		for attempt := 0; ; {
			o, err := step(s, i, k)
			if err == nil {
				c.record(o)
				break
			}
			if retry(err, attempt) != classDeadlock {
				return fmt.Errorf("txn %d: %w", k, err)
			}
			attempt++
		}
	}
	return nil
}

// TestRetryClassifier pins the one place a failed attempt becomes a
// decision: one case per class, in the shapes the errors really arrive
// in (wrapped with %w by the mux, or as the text of a remote runtime
// error), plus the budget.
func TestRetryClassifier(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		attempt int
		want    errClass
	}{
		{"deadlock sentinel over the database wire", fmt.Errorf("exec: %w", sqldb.ErrDeadlock), 0, classDeadlock},
		{"deadlock inside a control transfer", errors.New("runtime: remote: block 7: sqldb: deadlock detected"), 3, classDeadlock},
		{"unknown error", errors.New("duplicate primary key"), 0, classFatal},
		// A gated server sheds only session opens, which runClient
		// retries; a shed at a step is a broken contract.
		{"shed, wrapped", fmt.Errorf("session 3: %w", rpc.ErrOverloaded), 0, classFatal},
		{"deadlock past the budget", sqldb.ErrDeadlock, maxRetries, classFatal},
	}
	for _, c := range cases {
		if got := retry(c.err, c.attempt); got != c.want {
			t.Errorf("%s: class %d, want %d", c.name, got, c.want)
		}
	}
}
