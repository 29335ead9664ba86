package dnnf

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

func TestNNFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		f := randomCNF(rng, 1+rng.Intn(6), rng.Intn(8))
		n, _, err := Compile(context.Background(), f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNNF(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNNF(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		universe := f.Vars()
		a, b := CountModels(n, universe), CountModels(back, universe)
		if a.Cmp(b) != 0 {
			t.Fatalf("trial %d: round trip changed model count: %v vs %v", trial, a, b)
		}
		// Pointwise check on small universes.
		if len(universe) <= 10 {
			assign := make(map[int]bool)
			for mask := 0; mask < 1<<len(universe); mask++ {
				for i, v := range universe {
					assign[v] = mask&(1<<i) != 0
				}
				if Eval(n, assign) != Eval(back, assign) {
					t.Fatalf("trial %d: round trip changed semantics", trial)
				}
			}
		}
	}
}

func TestNNFFormat(t *testing.T) {
	b := NewBuilder()
	n := b.Decision(1, b.Lit(2), b.Lit(3))
	var buf bytes.Buffer
	if err := WriteNNF(&buf, n); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "nnf ") {
		t.Errorf("missing header: %q", out)
	}
	for _, want := range []string{"L 1", "L -1", "L 2", "L 3", "O 1 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNNFConstants(t *testing.T) {
	b := NewBuilder()
	for _, n := range []*Node{b.True(), b.False()} {
		var buf bytes.Buffer
		if err := WriteNNF(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNNF(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind != n.Kind {
			t.Errorf("constant round trip: got %v, want %v", back.Kind, n.Kind)
		}
	}
}

func TestParseNNFErrors(t *testing.T) {
	cases := []string{
		"",                                    // empty
		"L 1\n",                               // literal before header
		"nnf 1 0 1\nL 0\n",                    // zero literal
		"nnf 1 0 1\nX 1\n",                    // unknown line
		"nnf 2 1 1\nL 1\nA 1 5\n",             // forward/out-of-range reference
		"nnf 2 1 1\nL 1\nA 2 0\n",             // count mismatch
		"nnf 2 1 1\nL 1\nO -1 1 0",            // bad decision var
		"nnf 1 0\n",                           // malformed header
		"nnf 2 2 1\nL 1\nA 2 0 0\n",           // ∧ over one child twice
		"nnf 3 2 1\nL 1\nL -1\nA 2 0 1\n",     // ∧ over x1 and ¬x1
		"nnf 1 0 1\nL -9223372036854775808\n", // literal with no negation
	}
	for _, in := range cases {
		if _, err := ParseNNF(strings.NewReader(in)); err == nil {
			t.Errorf("ParseNNF(%q) succeeded, want error", in)
		}
	}
}

func TestParseNNFCountsPreserved(t *testing.T) {
	// A hand-written nnf: (x1 ∧ x2) ∨ (¬x1 ∧ x3) with decision on 1.
	in := `nnf 7 6 3
L 1
L 2
L -1
L 3
A 2 0 1
A 2 2 3
O 1 2 4 5
`
	n, err := ParseNNF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := CountModels(n, []int{1, 2, 3}); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("models = %v, want 4", got)
	}
	if err := Validate(n, 8); err != nil {
		t.Error(err)
	}
}
