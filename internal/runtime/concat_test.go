package runtime

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"pyxis/internal/pdg"
	"pyxis/internal/val"
)

// concatPageSrc builds a 20-line page with +=, as the TPC-W
// interactions build theirs.
const concatPageSrc = `
class P {
    P() {
    }

    entry string page(int n) {
        string html = "<table>";
        int i = 0;
        while (i < 20) {
            html += "<tr><td>" + sys.str(i) + "</td><td>" + sys.str(n) + "</td></tr>";
            i = i + 1;
        }
        return html + "</table>";
    }
}
`

// concatModel is a session's slots beside what each must read: the
// values a concat, a move or an endCall leaves, against plain Go string
// concatenation of the operands' renderings.
type concatModel struct {
	t    *testing.T
	sn   *Session
	s    []val.Value
	want []string
	// kept are values stored away (a row, a field), each with its
	// string when stored; no later step may change them.
	kept     []val.Value
	keptWant []string
	inPlace  int
}

// concatWork is the number of slots the steps write; the slots past
// them hold one constant of every kind val.Append renders.
const concatWork = 4

func newConcatModel(t *testing.T) *concatModel {
	consts := []val.Value{
		val.StrV("x"), val.StrV(""), val.StrV(strings.Repeat("<td>cell</td>", 9)),
		val.IntV(-42), val.IntV(7), val.DoubleV(2.5), val.DoubleV(3), val.BoolV(true), val.BoolV(false),
		{}, val.ObjV(3), val.TableV(9),
	}
	m := &concatModel{t: t, sn: NewPeer(LoopProgram(t), pdg.App, nil).NewSession(nil)}
	for i := 0; i < concatWork; i++ {
		m.s = append(m.s, val.StrV("w"))
		m.want = append(m.want, "w")
	}
	for _, c := range consts {
		m.s = append(m.s, c)
		m.want = append(m.want, c.String())
	}
	return m
}

// concat runs OpConcat into dst and returns the result.
func (m *concatModel) concat(dst int, args ...int) val.Value {
	var want strings.Builder
	for _, a := range args {
		want.WriteString(m.want[a])
	}
	op0 := m.s[args[0]]
	m.s[dst] = m.sn.concat(m.s, args)
	m.want[dst] = want.String()
	if r := m.s[dst]; len(args) > 1 && op0.K == val.Str && op0.S != "" && unsafe.StringData(r.S) == unsafe.StringData(op0.S) {
		m.inPlace++
	}
	m.check()
	return m.s[dst]
}

func (m *concatModel) move(dst, src int) {
	m.s[dst], m.want[dst] = m.s[src], m.want[src]
	m.check()
}

func (m *concatModel) keep(src int) {
	m.kept, m.keptWant = append(m.kept, m.s[src]), append(m.keptWant, m.want[src])
}

func (m *concatModel) endCall() {
	m.sn.endCall(val.Value{})
	m.check()
}

// check holds every slot and every kept value to the model.
func (m *concatModel) check() {
	m.t.Helper()
	for i, v := range m.s {
		if got := v.String(); got != m.want[i] {
			m.t.Fatalf("slot %d reads %q, want %q", i, got, m.want[i])
		}
	}
	for i, v := range m.kept {
		if got := v.String(); got != m.keptWant[i] {
			m.t.Fatalf("kept value %d reads %q, want %q", i, got, m.keptWant[i])
		}
	}
}

// TestConcatInPlace holds concat's in-place extension to plain string
// concatenation: seeded random concats, moves and keeps over a few
// slots and every operand kind, then the aliasing cases by name.
func TestConcatInPlace(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		m := newConcatModel(t)
		rng := rand.New(rand.NewSource(seed))
		last := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				// Operand 0 is half the time the slot the last concat
				// wrote, else any slot; the rest are any slot.
				args := []int{last}
				if rng.Intn(2) == 0 {
					args[0] = rng.Intn(len(m.s))
				}
				for k := rng.Intn(4); k >= 0; k-- {
					args = append(args, rng.Intn(len(m.s)))
				}
				dst := args[0]
				if dst >= concatWork || rng.Intn(3) == 0 {
					dst = rng.Intn(concatWork)
				}
				m.concat(dst, args...)
				last = dst
			case r < 8:
				m.move(rng.Intn(concatWork), rng.Intn(len(m.s)))
			case r < 9:
				m.keep(rng.Intn(concatWork))
			default:
				if rng.Intn(4) == 0 {
					m.endCall()
				} else {
					m.concat(rng.Intn(concatWork), rng.Intn(len(m.s)))
				}
			}
			// A work slot that grew past a page starts over, so the
			// walk keeps crossing the growth points.
			for i := 0; i < concatWork; i++ {
				if len(m.want[i]) > 4096 {
					m.s[i], m.want[i] = val.StrV("w"), "w"
				}
			}
		}
		if m.inPlace < 10 {
			t.Fatalf("seed %d: %d concats extended their operand in place, want >= 10", seed, m.inPlace)
		}
	}

	const x, y = concatWork + 2, concatWork // the constants "<td>cell</td>..." and "x"
	build := func(m *concatModel) val.Value {
		m.concat(0, x, x+1)
		m.concat(0, 0, x) // grows: a fresh result has no room for x
		return m.concat(0, 0, y)
	}

	t.Run("two slots extend the latest result", func(t *testing.T) {
		m := newConcatModel(t)
		r := build(m)
		m.move(1, 0)
		if got := m.concat(0, 0, y); unsafe.StringData(got.S) != unsafe.StringData(r.S) {
			t.Errorf("the first extension copied the result")
		}
		if got := m.concat(1, 1, x+1); unsafe.StringData(got.S) == unsafe.StringData(r.S) {
			t.Errorf("the second extension shared the first's bytes")
		}
		m.concat(0, 0, x+2)
		m.concat(1, 1, x)
	})

	t.Run("a kept prefix outlives later extensions", func(t *testing.T) {
		m := newConcatModel(t)
		build(m)
		m.keep(0)
		for i := 0; i < 40; i++ {
			m.concat(0, 0, x, x+1+i%8)
			if i%7 == 0 {
				m.keep(0)
			}
		}
		m.check()
	})

	// A result stored in a row is read by other sessions' goroutines
	// while its own session goes on extending it: the bytes they read
	// are never written again, which -race holds the writes to.
	t.Run("read on another goroutine while extended", func(t *testing.T) {
		m := newConcatModel(t)
		r := build(m)
		want := strings.Clone(r.S)
		done := make(chan bool)
		go func() {
			ok := true
			for i := 0; i < 100; i++ {
				ok = ok && r.S == want
			}
			done <- ok
		}()
		for i := 0; i < 100; i++ {
			m.concat(0, 0, y)
		}
		if !<-done {
			t.Errorf("a result read on another goroutine changed while its session extended it")
		}
	})

	t.Run("extended after endCall dropped the buffer", func(t *testing.T) {
		m := newConcatModel(t)
		r := build(m)
		m.keep(0)
		m.endCall()
		if got := m.concat(0, 0, y); unsafe.StringData(got.S) == unsafe.StringData(r.S) {
			t.Errorf("a result from before endCall was extended in place")
		}
		m.concat(0, 0, y)
	})
}
