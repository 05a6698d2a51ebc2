package pyxis

import (
	"bytes"
	"strings"
	"testing"
)

// TestRebuildReproducesProgram: a partition written out as a spec and
// rebuilt in a fresh System compiles to the same program, and its own
// spec is the same bytes.
func TestRebuildReproducesProgram(t *testing.T) {
	sys := profiledSystem(t, 5)
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		part, err := sys.PartitionAt(frac)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := part.Spec()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			re, err := Rebuild(spec)
			if err != nil {
				t.Fatalf("budget %.2f: %v", frac, err)
			}
			if got, want := re.Compiled.Disassemble(), part.Compiled.Disassemble(); got != want {
				t.Fatalf("budget %.2f: rebuilt program differs:\n%s\nwant:\n%s", frac, got, want)
			}
			again, err := re.Spec()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, spec) {
				t.Fatalf("budget %.2f: the rebuilt partition's spec differs from the one it was built from", frac)
			}
		}
	}
}

// TestRebuildRejectsMalformedSpecs: a spec comes off the network, so
// whatever its bytes say, Rebuild answers with an error, not a panic.
func TestRebuildRejectsMalformedSpecs(t *testing.T) {
	part, err := profiledSystem(t, 2).PartitionAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := part.Spec()
	if err != nil {
		t.Fatal(err)
	}
	good := string(spec)
	budget := good[strings.LastIndex(good, `"budget":`):]
	for name, b := range map[string]string{
		"truncated":        good[:len(good)/2],
		"empty":            "",
		"unparsable":       strings.Replace(good, `"source":"`, `"source":"class {`, 1),
		"NaN budget":       strings.Replace(good, budget, `"budget":NaN}`, 1),
		"negative budget":  strings.Replace(good, budget, `"budget":-1}`, 1),
		"no profile":       `{"source":"class C {}","budget":1}`,
		"not an object":    `[1,2]`,
		"wrong field type": strings.Replace(good, budget, `"budget":"1"}`, 1),
	} {
		if _, err := Rebuild([]byte(b)); err == nil {
			t.Errorf("%s: Rebuild accepted %.80q", name, b)
		}
	}
}
