package main

import (
	"fmt"
	"math/rand"
	"time"

	"pyxis/internal/bench"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// txnClass splits a workload's transactions into the two groups whose
// latency is reported separately: a median over NewOrders and
// Payments together would sit in the gap between two distributions.
type txnClass uint8

const (
	heavy txnClass = iota // NewOrder; bestSellers, newProducts, searchByTitle
	light                 // Payment; home, productDetail, orderInquiry
	numClasses
)

func (c txnClass) String() string {
	if c == heavy {
		return "heavy"
	}
	return "light"
}

// call is one generated transaction: an entry method of the program
// under test and its arguments.
type call struct {
	method string // entry method, as the reference interpreter names it
	qname  string // Class.method, as the runtime names it
	args   []val.Value
	class  txnClass
}

// generator yields a client's transaction stream. Everything it
// returns is a function of the seed it was built with.
type generator interface {
	next() call
}

// app is a program under test with its database and traffic.
type app struct {
	name    string
	source  string // PyxJ
	class   string // the PyxJ class holding the entry methods
	load    func() *sqldb.DB
	newGen  func(rng *rand.Rand) generator
	profile func(rng *rand.Rand) (db *sqldb.DB, gen generator, calls int)
	// invariants audits a database the timed mix ran against and
	// returns every violation (nil for TPC-W, which is read-only).
	invariants func(db *sqldb.DB) []string
}

// workload is one benchmark workload: an app, the share of the
// all-on-database load the partitioner may place on the database
// server, and the round-trip time injected on both connections.
type workload struct {
	Name   string
	Why    string
	app    *app
	budget float64
	rtt    time.Duration
}

var tpccCfg = bench.DefaultTPCC()
var tpcwCfg = bench.DefaultTPCW()

var tpccApp = &app{
	name:   "tpcc",
	source: bench.TPCCSource,
	class:  "TPCC",
	load:   tpccCfg.Load,
	newGen: func(rng *rand.Rand) generator { return newTPCCGen(tpccCfg, rng) },
	profile: func(rng *rand.Rand) (*sqldb.DB, generator, int) {
		// The small database the repo's own drivers profile on; the
		// profile only has to weight statements relative to each other.
		small := bench.TPCCConfig{Warehouses: 1, DistrictsPerW: 2, CustomersPerD: 5, Items: 100,
			MinLines: tpccCfg.MinLines, MaxLines: tpccCfg.MaxLines, RollbackPct: tpccCfg.RollbackPct}
		return small.Load(), newTPCCGen(small, rng), 40
	},
	invariants: func(db *sqldb.DB) []string { return bench.CheckTPCCInvariants(db, tpccCfg) },
}

var tpcwApp = &app{
	name:   "tpcw",
	source: bench.TPCWSource,
	class:  "TPCW",
	load:   tpcwCfg.Load,
	newGen: func(rng *rand.Rand) generator { return newTPCWGen(tpcwCfg, rng) },
	profile: func(rng *rand.Rand) (*sqldb.DB, generator, int) {
		small := bench.TPCWConfig{Items: 100, Authors: 10}
		return small.Load(), newTPCWGen(small, rng), 100
	},
	invariants: func(*sqldb.DB) []string { return nil },
}

// wanRTT is the paper's measured ping between its two servers.
const wanRTT = 2 * time.Millisecond

var workloads = []*workload{
	{
		Name:   "tpcc-sp-lan",
		Why:    "budget 1.0: one round trip per transaction, so the SQL engine and lock manager do the work and wire changes should not move it",
		app:    tpccApp,
		budget: 1.0,
	},
	{
		Name:   "tpcc-jdbc-lan",
		Why:    "budget 0: the same statements each as an APP-side database round trip, so framing, syscalls and the dbapi codec dominate",
		app:    tpccApp,
		budget: 0,
	},
	{
		Name:   "tpcc-mid-wan",
		Why:    "budget 0.5 over a 2 ms round trip: real control transfers with stack and heap sync; latency is round trips times RTT and CPU is idle",
		app:    tpccApp,
		budget: 0.5,
		rtt:    wanRTT,
	},
	{
		Name:   "tpcw-mid-lan",
		Why:    "read-only browsing mix at budget 0.5: scans, sorts, LIKE and joins without X locks, result tables on the wire; the control for write-path gains",
		app:    tpcwApp,
		budget: 0.5,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// TPC-C: 55 % NewOrder / 45 % Payment, 3-7 lines, 10 % NewOrder rollbacks
// ---------------------------------------------------------------------------

// tpccCard is one slot of the TPC-C deck.
type tpccCard struct {
	payment  bool
	lines    int
	rollback bool
}

// tpccGen deals transactions from a shuffled deck rather than rolling
// each one independently: every deck holds the exact mix (class share,
// each line count equally often, the rollback share), so two runs that
// complete different numbers of transactions still ran the same mix to
// within one deck and the per-transaction counts (round trips, bytes,
// allocations) do not wander with the dice. Warehouse, district,
// customer, item seed and amount are drawn per transaction.
type tpccGen struct {
	cfg  bench.TPCCConfig
	rng  *rand.Rand
	deck []tpccCard
	pos  int
	args [7]val.Value // reused: the callee copies arguments into its frame
}

func newTPCCGen(cfg bench.TPCCConfig, rng *rand.Rand) *tpccGen {
	g := &tpccGen{cfg: cfg, rng: rng}
	// 110 NewOrders and 90 Payments are 55/45; the line counts take
	// turns, and the rolled-back orders are spaced so that they take
	// turns over the line counts too.
	const newOrders, payments = 110, 90
	nLines := cfg.MaxLines - cfg.MinLines + 1
	for i := 0; i < newOrders; i++ {
		g.deck = append(g.deck, tpccCard{lines: cfg.MinLines + i%nLines})
	}
	if rollbacks := newOrders * cfg.RollbackPct / 100; rollbacks > 0 {
		stride := newOrders / rollbacks
		for k := 0; k < rollbacks; k++ {
			g.deck[k*stride+k%stride].rollback = true
		}
	}
	for i := 0; i < payments; i++ {
		g.deck = append(g.deck, tpccCard{payment: true})
	}
	g.pos = len(g.deck)
	return g
}

func (g *tpccGen) next() call {
	if g.pos == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.pos = 0
	}
	card := g.deck[g.pos]
	g.pos++
	wid := val.IntV(int64(g.rng.Intn(g.cfg.Warehouses) + 1))
	did := val.IntV(int64(g.rng.Intn(g.cfg.DistrictsPerW) + 1))
	cid := val.IntV(int64(g.rng.Intn(g.cfg.CustomersPerD) + 1))
	if card.payment {
		// Whole amounts keep the YTD sums exact in float64, so the
		// invariant audit compares them without rounding slack.
		amount := val.DoubleV(float64(g.rng.Intn(97) + 1))
		g.args = [7]val.Value{wid, did, cid, amount}
		return call{method: "payment", qname: "TPCC.payment", class: light, args: g.args[:4]}
	}
	g.args = [7]val.Value{
		wid, did, cid, val.IntV(int64(card.lines)),
		val.IntV(int64(g.rng.Intn(99991))), val.IntV(int64(g.cfg.Items)), val.BoolV(card.rollback),
	}
	return call{method: "newOrder", qname: "TPCC.newOrder", class: heavy, args: g.args[:]}
}

// ---------------------------------------------------------------------------
// TPC-W browsing mix
// ---------------------------------------------------------------------------

// tpcwMix restates the browsing-mix weights (percent) the repo's
// simulated driver uses; they sum to 100, so one deck is one percent
// table.
var tpcwMix = []struct {
	method, qname string
	weight        int
	class         txnClass
}{
	{"home", "TPCW.home", 29, light},
	{"newProducts", "TPCW.newProducts", 11, heavy},
	{"bestSellers", "TPCW.bestSellers", 11, heavy},
	{"productDetail", "TPCW.productDetail", 21, light},
	{"searchByTitle", "TPCW.searchByTitle", 23, heavy},
	{"orderInquiry", "TPCW.orderInquiry", 5, light},
}

// tpcwGen deals interactions from a shuffled 100-card deck, for the
// reason given at tpccGen.
type tpcwGen struct {
	cfg  bench.TPCWConfig
	rng  *rand.Rand
	deck []int // indices into tpcwMix
	pos  int
	arg  [1]val.Value // reused, as in tpccGen
}

func newTPCWGen(cfg bench.TPCWConfig, rng *rand.Rand) *tpcwGen {
	g := &tpcwGen{cfg: cfg, rng: rng}
	for i, m := range tpcwMix {
		for k := 0; k < m.weight; k++ {
			g.deck = append(g.deck, i)
		}
	}
	g.pos = len(g.deck)
	return g
}

func (g *tpcwGen) next() call {
	if g.pos == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.pos = 0
	}
	m := tpcwMix[g.deck[g.pos]]
	g.pos++
	c := call{method: m.method, qname: m.qname, class: m.class, args: g.arg[:]}
	switch m.method {
	case "home", "orderInquiry":
		g.arg[0] = val.IntV(int64(g.rng.Intn(100) + 1))
	case "productDetail":
		g.arg[0] = val.IntV(int64(g.rng.Intn(g.cfg.Items) + 1))
	case "searchByTitle":
		g.arg[0] = val.IntV(int64(g.rng.Intn(100)))
	case "newProducts":
		g.arg[0] = val.IntV(int64(20000000 + g.rng.Intn(3650)))
	case "bestSellers":
		c.args = nil
	default:
		panic(fmt.Sprintf("benchmark: no argument rule for TPC-W interaction %q", m.method))
	}
	return c
}

// clientSeed spreads one run seed over the clients; 7919 keeps the
// streams of neighbouring seeds from coinciding (client 1 of seed s is
// not client 0 of seed s+1).
func clientSeed(seed int64, client int) int64 { return seed + 7919*int64(client) }
