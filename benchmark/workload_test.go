package main

import (
	"fmt"
	"math/rand"
	"testing"
)

// stream renders the first n calls of a generator.
func stream(g generator, n int) []string {
	out := make([]string, n)
	for i := range out {
		c := g.next()
		out[i] = fmt.Sprint(c.qname, c.class, c.args)
	}
	return out
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	for _, a := range []*app{tpccApp, tpcwApp} {
		gen := func(seed int64) []string { return stream(a.newGen(rand.New(rand.NewSource(seed))), 1000) }
		one, again, other := gen(clientSeed(1, 0)), gen(clientSeed(1, 0)), gen(clientSeed(2, 0))
		same := 0
		for i := range one {
			if one[i] != again[i] {
				t.Fatalf("%s: call %d differs between two generators of one seed: %s vs %s", a.name, i, one[i], again[i])
			}
			if one[i] == other[i] {
				same++
			}
		}
		if same > len(one)/2 {
			t.Errorf("%s: seeds 1 and 2 agree on %d of %d calls", a.name, same, len(one))
		}
	}
	if clientSeed(1, 1) == clientSeed(2, 0) || clientSeed(1, 0) == clientSeed(1, 1) {
		t.Error("client seeds of neighbouring run seeds coincide")
	}
}

func TestTPCCDeckHoldsTheExactMix(t *testing.T) {
	g := newTPCCGen(tpccCfg, rand.New(rand.NewSource(7)))
	for deck := 0; deck < 3; deck++ {
		lines := map[int64]int{}
		rollbackLines := map[int64]int{}
		payments, rollbacks := 0, 0
		for i := 0; i < 200; i++ {
			c := g.next()
			if c.method == "payment" {
				payments++
				if c.class != light || len(c.args) != 4 {
					t.Fatalf("payment = %+v", c)
				}
				continue
			}
			if c.class != heavy || len(c.args) != 7 {
				t.Fatalf("newOrder = %+v", c)
			}
			lines[c.args[3].I]++
			if c.args[6].I != 0 {
				rollbacks++
				rollbackLines[c.args[3].I]++
			}
		}
		if payments != 90 || rollbacks != 11 || len(lines) != 5 {
			t.Errorf("deck %d: %d payments, %d rollbacks, line counts %v; want 90, 11 and five counts", deck, payments, rollbacks, lines)
		}
		for l := int64(tpccCfg.MinLines); l <= int64(tpccCfg.MaxLines); l++ {
			if lines[l] != 22 {
				t.Errorf("deck %d: %d orders of %d lines, want 22", deck, lines[l], l)
			}
			if rollbackLines[l] < 2 || rollbackLines[l] > 3 {
				t.Errorf("deck %d: %d rolled-back orders of %d lines, want 2 or 3", deck, rollbackLines[l], l)
			}
		}
	}
}

func TestTPCWDeckHoldsTheBrowsingMix(t *testing.T) {
	g := newTPCWGen(tpcwCfg, rand.New(rand.NewSource(7)))
	got := map[string]int{}
	heavies := 0
	for i := 0; i < 100; i++ {
		c := g.next()
		got[c.method]++
		if c.class == heavy {
			heavies++
		}
		if want := 1; c.method == "bestSellers" && len(c.args) != 0 || c.method != "bestSellers" && len(c.args) != want {
			t.Errorf("%s called with %d arguments", c.method, len(c.args))
		}
	}
	total := 0
	for _, m := range tpcwMix {
		total += m.weight
		if got[m.method] != m.weight {
			t.Errorf("%d %s in one deck, want %d", got[m.method], m.method, m.weight)
		}
	}
	if total != 100 || heavies != 45 {
		t.Errorf("weights sum to %d with %d heavy interactions, want 100 and 45", total, heavies)
	}
}
