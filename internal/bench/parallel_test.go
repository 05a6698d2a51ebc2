package bench

import (
	"fmt"
	"sync"
	"testing"

	"pyxis"
	"pyxis/internal/deploy"
	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// LedgerMix is the ledger workload's schedule.
type LedgerMix struct {
	// ShareEvery sends every k-th deposit to the shared account, a
	// contended row (0: never).
	ShareEvery int
	// DepositEvery makes every k-th call a deposit and the rest balance
	// reads, which keep the handler cheap so the run is wire-bound (0:
	// all deposits).
	DepositEvery int
}

// placed counts the clients' control sessions per pooled connection: a
// broken pool piles everything on one.
type placed struct {
	mu   sync.Mutex
	conn map[*rpc.MuxClient]int
}

func (p *placed) add(c *deploy.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		p.conn = map[*rpc.MuxClient]int{}
	}
	p.conn[c.Ctl.Conn()]++
}

// ledgerRun is one ledger run: what the clients did, where their
// sessions landed, the control transfers the DB side served and the
// database to audit with CheckLedger.
type ledgerRun struct {
	driven
	sum       count
	placed    placed
	transfers int64
	db        *sqldb.DB
}

// runLedger drives cfg.Clients concurrent ledger sessions, each its own
// logical thread of control with its own Ledger object, against a
// one-server tier hosting part.
func runLedger(t *testing.T, part *pyxis.Partition, cfg WallCfg, mix LedgerMix) *ledgerRun {
	t.Helper()
	d := up(t, deploy.Topology{Conns: cfg.Conns, Partition: part,
		NewDB: func() (*sqldb.DB, error) { return parallelDB(cfg.Clients) }})
	defer d.Close()
	r := &ledgerRun{db: d.DB}
	var err error
	r.driven, err = drive(cfg.Clients, cfg.Txns,
		func(i int) (*deploy.Client, error) {
			c, err := d.App.Open("Ledger", val.IntV(int64(i)))
			if err == nil {
				r.placed.add(c)
			}
			return c, err
		},
		func(c *deploy.Client, i, k int) (txnOut, error) {
			if mix.DepositEvery > 0 && k%mix.DepositEvery != 0 {
				_, err := c.Call("Ledger.balance", val.IntV(int64(i)))
				return txnOut{kind: kindRead}, err
			}
			acct := int64(i)
			if mix.ShareEvery > 0 && k%mix.ShareEvery == 0 {
				acct = int64(cfg.Clients) // the contended shared account
			}
			_, err := c.Call("Ledger.deposit", val.IntV(acct), val.IntV(int64(k)), val.DoubleV(1))
			return txnOut{kind: kindDeposit}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	r.sum, r.transfers = r.total(), d.Transfers()
	return r
}

// TestRunParallelMux is the acceptance test for the concurrent
// runtime: 8 concurrent sessions multiplexed over one loopback TCP
// connection per wire against one shared DB-side runtime, with the
// ledger invariant proving no update was lost under contention. Rows
// vary the contention (every 4th or every 2nd deposit on the shared
// account) and the placement: at budget 0 every query is issued from
// the APP side over the database wire.
func TestRunParallelMux(t *testing.T) {
	for _, tc := range []struct {
		budget           float64
		txns, shareEvery int
	}{{1.0, 10, 4}, {1.0, 5, 2}, {0, 5, 2}} {
		t.Run(fmt.Sprintf("budget%.0f_share%d", tc.budget, tc.shareEvery), func(t *testing.T) {
			part, err := ParallelPartition(tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			dbSide := tc.budget == 1
			if dbSide && part.DBStatements() == 0 {
				t.Fatal("budget 1.0 should place statements on the DB server")
			}
			cfg := WallCfg{Clients: 8, Txns: tc.txns}
			r := runLedger(t, part, cfg, LedgerMix{ShareEvery: tc.shareEvery})
			want := cfg.Clients * cfg.Txns
			if r.sum.txns != want {
				t.Errorf("completed %d txns, want %d", r.sum.txns, want)
			}
			if dbSide && r.transfers == 0 {
				t.Error("shared DB-side peer served no control transfers")
			}
			// Every deposit added exactly 1.0 somewhere; lost updates on
			// the contended shared account would show as a lower total.
			for _, v := range CheckLedger(r.db, want) {
				t.Errorf("under concurrency: %s", v)
			}
			for i, c := range r.clients {
				if c.txns != cfg.Txns {
					t.Errorf("session %d completed %d calls, want %d", i, c.txns, cfg.Txns)
				}
			}
		})
	}
}
