package dnnf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
)

// goldenCompilePath holds the pinned output of TestCompileGolden, one line
// per case.
const goldenCompilePath = "testdata/compile_golden.txt"

// sparseIDs returns n distinct variable IDs drawn from a wide range and in
// no particular order, so a formula over them exercises the compiler's
// handling of sparse, non-contiguous variables.
func sparseIDs(rng *rand.Rand, n int) []int {
	seen := make(map[int]bool, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		v := 1 + rng.Intn(1<<20)
		if rng.Intn(8) == 0 {
			v += 1 << 40
		}
		if !seen[v] {
			seen[v] = true
			ids = append(ids, v)
		}
	}
	return ids
}

// goldenCNF draws one to three random blocks over sparse variable IDs, with
// clause widths 1–4 (unit clauses are rare but present, so propagation
// runs), dense enough for real search and cache hits.
func goldenCNF(rng *rand.Rand) *cnf.Formula {
	f := &cnf.Formula{Aux: map[int]bool{}}
	for b, blocks := 0, 1+rng.Intn(3); b < blocks; b++ {
		k := 6 + rng.Intn(15)
		ids := sparseIDs(rng, k)
		for i, m := 0, k+rng.Intn(k+1); i < m; i++ {
			w := 2 + rng.Intn(3)
			if rng.Intn(20) == 0 {
				w = 1
			}
			cl := make(cnf.Clause, 0, w)
			for j := 0; j < w; j++ {
				l := cnf.Lit(ids[rng.Intn(k)])
				if rng.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			f.Clauses = append(f.Clauses, cl)
		}
	}
	for _, v := range f.Vars() {
		f.MaxVar = max(f.MaxVar, v)
	}
	return f
}

// goldenCircuit builds a random Boolean circuit over sparse variable IDs,
// with negations at the leaves.
func goldenCircuit(rng *rand.Rand, b *circuit.Builder, ids []int, depth int) *circuit.Node {
	if depth == 0 || rng.Intn(4) == 0 {
		v := b.Variable(circuit.Var(ids[rng.Intn(len(ids))]))
		if rng.Intn(4) == 0 {
			return b.Not(v)
		}
		return v
	}
	cs := make([]*circuit.Node, 2+rng.Intn(2))
	for i := range cs {
		cs[i] = goldenCircuit(rng, b, ids, depth-1)
	}
	if rng.Intn(2) == 0 {
		return b.And(cs...)
	}
	return b.Or(cs...)
}

// nnfDigest is the SHA-256 of the circuit's nnf serialization, or "-" for
// a failed compilation.
func nnfDigest(t *testing.T, n *Node) string {
	t.Helper()
	if n == nil {
		return "-"
	}
	var buf bytes.Buffer
	if err := WriteNNF(&buf, n); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// goldenLine compiles f under opts and renders the effort
// counters, the outcome and the digests of the circuit and of its
// EliminateAux reduction.
func goldenLine(t *testing.T, name string, f *cnf.Formula, opts Options) string {
	t.Helper()
	root, s, err := Compile(context.Background(), f, opts)
	errText, reduced := "-", (*Node)(nil)
	if err != nil {
		errText = strings.ReplaceAll(err.Error(), " ", "_")
	} else {
		reduced = EliminateAux(root, func(v int) bool { return f.Aux[v] })
	}
	return fmt.Sprintf("%s decisions=%d props=%d hits=%d misses=%d components=%d nodes=%d err=%s nnf=%s reduced=%s",
		name, s.Decisions, s.Propagations, s.CacheHits, s.CacheMisses, s.Components, s.Nodes,
		errText, nnfDigest(t, root), nnfDigest(t, reduced))
}

// goldenCompileLines compiles every golden case: seeded random CNFs over
// sparse IDs and Tseytin CNFs of random circuits (which carry auxiliary
// variables), each with the component cache on and off, and a few
// compilations whose node budget trips. Every row name keeps the "freq"
// segment of the most-frequent pick, the compiler's one heuristic.
func goldenCompileLines(t *testing.T) []string {
	var lines []string
	variants := func(kind string, i int, f *cnf.Formula) {
		for _, off := range []bool{false, true} {
			name := fmt.Sprintf("%s%02d/freq/cache=%v", kind, i, !off)
			lines = append(lines, goldenLine(t, name, f, Options{DisableCache: off}))
		}
	}
	rng := rand.New(rand.NewSource(20240617))
	var cnfs []*cnf.Formula
	for i := 0; i < 30; i++ {
		f := goldenCNF(rng)
		cnfs = append(cnfs, f)
		variants("cnf", i, f)
	}
	for i := 0; i < 15; i++ {
		cb := circuit.NewBuilder()
		f := cnf.Tseytin(goldenCircuit(rng, cb, sparseIDs(rng, 4+rng.Intn(8)), 4+rng.Intn(2)))
		variants("tseytin", i, f)
	}
	for i, f := range cnfs[:8] {
		maxNodes := 20 + 10*i
		name := fmt.Sprintf("budget%02d/freq/max=%d", i, maxNodes)
		lines = append(lines, goldenLine(t, name, f, Options{MaxNodes: maxNodes}))
	}
	return lines
}

// TestCompileGolden pins the compiler's output across commits:
// for every case, the Stats effort counters and the SHA-256 of the nnf
// bytes of the compiled circuit and of its EliminateAux reduction must
// match testdata/compile_golden.txt exactly. A change to the compiler that
// moves any of them changes the circuits callers get, node IDs included.
func TestCompileGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenCompilePath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := goldenCompileLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, %s has %d lines", len(got), goldenCompilePath, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", goldenCompilePath, i+1, got[i], want[i])
		}
	}
}
