package dnnf

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
)

// dimacs renders a formula as DIMACS text.
func dimacs(tb testing.TB, f *cnf.Formula) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := f.WriteDIMACS(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// auxMask is the FuzzCompile input that marks f's auxiliaries: bit i marks
// the i-th smallest variable of f.
func auxMask(f *cnf.Formula) uint16 {
	var m uint16
	for i, v := range f.Vars() {
		if f.Aux[v] {
			m |= 1 << i
		}
	}
	return m
}

// FuzzCompile compiles every small DIMACS input with the component cache on
// and off and checks each circuit's structure and model count against brute
// force. DIMACS carries no auxiliary marks, so a second input marks a subset
// of the variables as Tseytin auxiliaries, which the compiler branches on
// only where a component holds no unmarked variable.
func FuzzCompile(f *testing.F) {
	for _, formula := range []*cnf.Formula{
		chainFormula(3),
		{Clauses: []cnf.Clause{{1}, {-1}}, Aux: map[int]bool{}, MaxVar: 1},
		{Clauses: []cnf.Clause{{1, -1}}, Aux: map[int]bool{}, MaxVar: 1},
		{Clauses: []cnf.Clause{{1, 2}, {-1, 2}}, Aux: map[int]bool{}, MaxVar: 2},
		{Clauses: []cnf.Clause{{1, 2}, {-1, 3}, {2, -3}}, Aux: map[int]bool{}, MaxVar: 3},
	} {
		f.Add(dimacs(f, formula), uint16(0))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 6; i++ {
		f.Add(dimacs(f, randomCNF(rng, 1+rng.Intn(6), rng.Intn(8))), uint16(0))
	}
	f.Add(dimacs(f, multiComponentCNF(rand.New(rand.NewSource(83)), 2, 4, 5)), uint16(0))
	f.Add([]byte("p cnf 3 2\n9000000000 -7 0\n-9000000000 2 0\n"), uint16(0))
	// A Tseytin CNF under its own marks, and with every variable marked,
	// where the pick falls back to the auxiliaries.
	tseytin := cnf.Tseytin(randomBoolCircuit(rand.New(rand.NewSource(89)), circuit.NewBuilder(), 3, 2))
	f.Add(dimacs(f, tseytin), auxMask(tseytin))
	f.Add(dimacs(f, tseytin), uint16(0xffff))

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte, aux uint16) {
		formula, err := cnf.ParseDIMACS(bytes.NewReader(data))
		if err != nil {
			return
		}
		universe := formula.Vars()
		if len(universe) > 12 || len(formula.Clauses) > 40 {
			t.Skip("too large to brute-force")
		}
		for i, v := range universe {
			if aux>>i&1 == 1 {
				formula.Aux[v] = true
			}
		}
		want := big.NewInt(int64(bruteCount(formula, universe)))
		for _, off := range []bool{false, true} {
			opts := Options{DisableCache: off}
			root, _, err := Compile(ctx, formula, opts)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if err := Validate(root, 12); err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if got := CountModels(root, universe); got.Cmp(want) != 0 {
				t.Fatalf("%+v: model count %v, brute force %v", opts, got, want)
			}
		}
	})
}

// FuzzParseNNF feeds arbitrary bytes to ParseNNF, which must return an
// error or a circuit, never panic; a parsed circuit written out and parsed
// again must keep its support and model count.
func FuzzParseNNF(f *testing.F) {
	for _, in := range []string{
		"",
		"L 1\n",
		"nnf 1 0 1\nL 0\n",
		"nnf 2 1 1\nL 1\nA 1 5\n",
		"nnf 2 1 1\nL 1\nO -1 1 0",
		"nnf 2 2 1\nL 1\nA 2 0 0\n",
		"nnf 3 2 1\nL 1\nL -1\nA 2 0 1\n",
		"nnf 7 6 3\nL 1\nL 2\nL -1\nL 3\nA 2 0 1\nA 2 2 3\nO 1 2 4 5\n",
		"nnf 1 0 0\nA 0\n",
		"nnf 1 0 0\nO 0 0\n",
	} {
		f.Add([]byte(in))
	}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 4; i++ {
		root, _, err := Compile(context.Background(), randomCNF(rng, 1+rng.Intn(6), rng.Intn(8)), Options{})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNNF(&buf, root); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ParseNNF(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteNNF(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNNF(&buf)
		if err != nil {
			t.Fatalf("written circuit does not parse: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(back.Vars(), n.Vars()) {
			t.Fatalf("round trip changed the support: %v, want %v", back.Vars(), n.Vars())
		}
		if got, want := CountModels(back, n.Vars()), CountModels(n, n.Vars()); got.Cmp(want) != 0 {
			t.Fatalf("round trip changed the model count: %v, want %v", got, want)
		}
	})
}
