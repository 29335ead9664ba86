package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// thresholdTestDNNF builds the "at least t of the n variables are true"
// voting function as a d-DNNF decision DAG (an OBDD in the variable order
// 1..n). Every variable is in the support for 1 ≤ t ≤ n, and the circuit
// grows as O(n·t) nodes — a convenient family for exercising the gradient
// passes at sizes where every code path (gaps, shared nodes, deep levels)
// appears.
func thresholdTestDNNF(b *dnnf.Builder, n, t int) *dnnf.Node {
	type key struct{ i, need int }
	memo := map[key]*dnnf.Node{}
	var rec func(i, need int) *dnnf.Node
	rec = func(i, need int) *dnnf.Node {
		if need <= 0 {
			return b.True()
		}
		if need > n-i+1 {
			return b.False()
		}
		k := key{i, need}
		if v, ok := memo[k]; ok {
			return v
		}
		v := b.Decision(i, rec(i+1, need-1), rec(i+1, need))
		memo[k] = v
		return v
	}
	return rec(1, t)
}

func factRange(n int) []db.FactID {
	endo := make([]db.FactID, n)
	for i := range endo {
		endo[i] = db.FactID(i + 1)
	}
	return endo
}

// TestGradientMatchesPerFactOnFlights checks the gradient strategy against
// the per-fact strategy and the paper's Example 2.1 values on the flights
// pipeline output.
func TestGradientMatchesPerFactOnFlights(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Strategy: StrategyPerFact})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		grad, err := ShapleyAllStrategy(context.Background(), res.DNNF, endo, workers, StrategyGradient)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		valuesIdentical(t, grad, res.Values, "gradient vs per-fact (flights)")
		ratEq(t, grad[fs.A[1].ID], 43, 105, "gradient Shapley(a1)")
		ratEq(t, grad[fs.A[8].ID], 0, 1, "gradient Shapley(a8)")
	}
}

// TestGradientMatchesPerFactAndNaiveRandom is the property test of the
// gradient rewrite: on random monotone lineages (with extra null players
// beyond the circuit support), gradient-mode ShapleyAll must be
// big.Rat-identical to the per-fact path and to the 2^n enumeration ground
// truth.
func TestGradientMatchesPerFactAndNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		cb := circuit.NewBuilder()
		nVars := 2 + rng.Intn(5)
		elin := randomMonotoneCircuit(rng, cb, nVars, 3)
		universe := nVars + rng.Intn(3)
		endo := factRange(universe)
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Strategy: StrategyPerFact})
		if err != nil {
			t.Fatal(err)
		}
		grad, err := ShapleyAllStrategy(context.Background(), res.DNNF, endo, 1+rng.Intn(4), StrategyGradient)
		if err != nil {
			t.Fatal(err)
		}
		game := func(subset map[db.FactID]bool) bool {
			assign := make(map[circuit.Var]bool, len(subset))
			for id, in := range subset {
				assign[circuit.Var(id)] = in
			}
			return circuit.Eval(elin, assign)
		}
		naive, err := NaiveShapley(game, endo)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range endo {
			if grad[f].Cmp(res.Values[f]) != 0 {
				t.Fatalf("trial %d: fact %d: gradient = %v, per-fact = %v\ncircuit: %s",
					trial, f, grad[f], res.Values[f], circuit.String(elin))
			}
			if grad[f].Cmp(naive[f]) != 0 {
				t.Fatalf("trial %d: fact %d: gradient = %v, naive = %v\ncircuit: %s",
					trial, f, grad[f], naive[f], circuit.String(elin))
			}
		}
	}
}

// TestGradientCompiledCircuitsWithNegativeLiterals exercises the gradient
// path on compiled random CNFs, whose d-DNNFs contain negative literals and
// non-monotone structure (the monotone lineage tests never produce ¬v
// leaves reachable in interesting positions).
func TestGradientCompiledCircuitsWithNegativeLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		f := randomTestCNF(rng, 2+rng.Intn(4), 1+rng.Intn(6))
		c, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		endo := factRange(f.MaxVar + rng.Intn(2))
		perFact, err := ShapleyAllStrategy(context.Background(), c, endo, 1, StrategyPerFact)
		if err != nil {
			t.Fatal(err)
		}
		grad, err := ShapleyAllStrategy(context.Background(), c, endo, 1+rng.Intn(4), StrategyGradient)
		if err != nil {
			t.Fatal(err)
		}
		valuesIdentical(t, grad, perFact, "gradient vs per-fact (compiled CNF)")
	}
}

// TestGradientEfficiencyAxiomBothModes: under both strategies the values
// sum to the #SAT difference q(all) − q(∅) of the lineage (the efficiency
// axiom), on random monotone lineages.
func TestGradientEfficiencyAxiomBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		cb := circuit.NewBuilder()
		nVars := 2 + rng.Intn(6)
		elin := randomMonotoneCircuit(rng, cb, nVars, 3)
		endo := factRange(nVars)
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Strategy: StrategyPerFact})
		if err != nil {
			t.Fatal(err)
		}
		all := make(map[circuit.Var]bool)
		for _, f := range endo {
			all[circuit.Var(f)] = true
		}
		want := new(big.Rat)
		if circuit.Eval(elin, all) {
			want.SetInt64(1)
		}
		if circuit.Eval(elin, map[circuit.Var]bool{}) {
			want.Sub(want, big.NewRat(1, 1))
		}
		for _, strategy := range []ShapleyStrategy{StrategyPerFact, StrategyGradient} {
			v, err := ShapleyAllStrategy(context.Background(), res.DNNF, endo, 2, strategy)
			if err != nil {
				t.Fatal(err)
			}
			if v.Sum().Cmp(want) != 0 {
				t.Fatalf("trial %d: strategy %v: Σ Shapley = %v, want %v", trial, strategy, v.Sum(), want)
			}
		}
	}
}

// TestGradientParallelMatchesSerial asserts that the gradient's values on a
// threshold circuit do not depend on the worker count (its passes are
// serial; the per-fact cross-check fans out across facts).
func TestGradientParallelMatchesSerial(t *testing.T) {
	b := dnnf.NewBuilder()
	n := 16
	c := thresholdTestDNNF(b, n, n/2)
	endo := factRange(n)
	serial, err := ShapleyAllStrategy(context.Background(), c, endo, 1, StrategyGradient)
	if err != nil {
		t.Fatal(err)
	}
	// All facts are symmetric in a threshold function: equal values, and by
	// efficiency they sum to 1 (the all-true coalition wins, empty loses).
	first := serial[endo[0]]
	for _, f := range endo {
		if serial[f].Cmp(first) != 0 {
			t.Fatalf("threshold symmetry violated: fact %d = %v, fact %d = %v", endo[0], first, f, serial[f])
		}
	}
	if want := big.NewRat(1, int64(n)); first.Cmp(want) != 0 {
		t.Fatalf("threshold Shapley value = %v, want %v", first, want)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := ShapleyAllStrategy(context.Background(), c, endo, workers, StrategyGradient)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		valuesIdentical(t, par, serial, "gradient parallel vs serial")
	}
	perFact, err := ShapleyAllStrategy(context.Background(), c, endo, 4, StrategyPerFact)
	if err != nil {
		t.Fatal(err)
	}
	valuesIdentical(t, perFact, serial, "per-fact vs gradient (threshold)")
}

// TestGradientAcrossWordSwitch runs Algorithm 1 on threshold circuits on
// both sides of the switch from uint64 words to big.Int at 64 facts. Every
// fact of "at least n/2 of n" is symmetric, so by efficiency each value is
// exactly 1/n; at n = 96 the word instance would overflow, so selecting it
// there fails this test.
func TestGradientAcrossWordSwitch(t *testing.T) {
	for _, n := range []int{63, 64, 65, 96} {
		c := thresholdTestDNNF(dnnf.NewBuilder(), n, n/2)
		endo := factRange(n)
		strategies := []ShapleyStrategy{StrategyGradient}
		if n == 64 {
			strategies = append(strategies, StrategyPerFact)
		}
		for _, strategy := range strategies {
			v, err := ShapleyAllStrategy(context.Background(), c, endo, 2, strategy)
			if err != nil {
				t.Fatal(err)
			}
			want := big.NewRat(1, int64(n))
			for _, f := range endo {
				if v[f].Cmp(want) != 0 {
					t.Fatalf("n=%d %v: Shapley(%d) = %v, want %v", n, strategy, f, v[f], want)
				}
			}
		}
	}
}

// TestComputeAllSATkAcrossWordSwitch: on threshold circuits around the
// switch, ComputeAllSATk equals the big.Int instance entry by entry and the
// closed form #SAT_k = C(n,k) for k ≥ n/2. At n = 64, the widest
// word-counted support, entries peak at C(64,32) ≈ 1.8·10^18; at n = 96 they
// overflow 64 bits, so counting that circuit in words fails this test.
func TestComputeAllSATkAcrossWordSwitch(t *testing.T) {
	for _, n := range []int{64, 65, 96} {
		c := thresholdTestDNNF(dnnf.NewBuilder(), n, n/2)
		order, maxID := flattenDNNF(c)
		bigMemo, err := satkPass(context.Background(), bigArith{}, order, maxID)
		if err != nil {
			t.Fatal(err)
		}
		want := bigMemo[c.ID()]
		got := ComputeAllSATk(c)
		if len(got) != n+1 || len(want) != n+1 {
			t.Fatalf("n=%d: len = %d, %d (big), want %d", n, len(got), len(want), n+1)
		}
		for k := range got {
			closed := new(big.Int)
			if k >= n/2 {
				closed.Binomial(int64(n), int64(k))
			}
			if got[k].Cmp(want[k]) != 0 || got[k].Cmp(closed) != 0 {
				t.Fatalf("n=%d #SAT_%d = %v, big instance %v, closed form %v", n, k, got[k], want[k], closed)
			}
		}
	}
}

// TestGradientWordMatchesBig calls the word and big.Int instances of both
// passes directly on the random monotone lineages and the compiled random
// CNFs (with negative literals) of the tests above: every node's #SAT_k
// vector and every Shapley value must agree.
func TestGradientWordMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	check := func(trial int, c *dnnf.Node, endo []db.FactID) {
		t.Helper()
		order, maxID := flattenDNNF(c)
		words, err := satkPass(context.Background(), wordArith{}, order, maxID)
		if err != nil {
			t.Fatal(err)
		}
		bigs, err := satkPass(context.Background(), bigArith{}, order, maxID)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range order {
			w, b := words[m.ID()], bigs[m.ID()]
			if len(w) != len(b) {
				t.Fatalf("trial %d node %d: len %d (word) vs %d (big)", trial, m.ID(), len(w), len(b))
			}
			for k := range w {
				if !b[k].IsUint64() || b[k].Uint64() != w[k] {
					t.Fatalf("trial %d node %d: #SAT_%d = %d (word) vs %v (big)", trial, m.ID(), k, w[k], b[k])
				}
			}
		}
		wv, err := gradientValues(context.Background(), wordArith{}, c, endo)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := gradientValues(context.Background(), bigArith{}, c, endo)
		if err != nil {
			t.Fatal(err)
		}
		valuesIdentical(t, wv, bv, "word vs big gradient")
	}
	for trial := 0; trial < 60; trial++ {
		cb := circuit.NewBuilder()
		nVars := 2 + rng.Intn(5)
		elin := randomMonotoneCircuit(rng, cb, nVars, 3)
		endo := factRange(nVars + rng.Intn(3))
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Strategy: StrategyPerFact})
		if err != nil {
			t.Fatal(err)
		}
		check(trial, res.DNNF, endo)

		f := randomTestCNF(rng, 2+rng.Intn(4), 1+rng.Intn(6))
		c, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(trial, c, factRange(f.MaxVar+rng.Intn(2)))
	}
}

// TestGradientDegenerateCircuits covers the constant and single-literal
// roots the two-pass algorithm must special-case.
func TestGradientDegenerateCircuits(t *testing.T) {
	b := dnnf.NewBuilder()
	endo := factRange(3)
	for name, c := range map[string]*dnnf.Node{
		"true":  b.True(),
		"false": b.False(),
	} {
		v, err := ShapleyAllStrategy(context.Background(), c, endo, 1, StrategyGradient)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range endo {
			ratEq(t, v[f], 0, 1, "gradient Shapley on constant "+name)
		}
	}
	// Root is a single positive literal: that fact is a dictator.
	v, err := ShapleyAllStrategy(context.Background(), b.Lit(2), endo, 1, StrategyGradient)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, v[2], 1, 1, "gradient Shapley(dictator)")
	ratEq(t, v[1], 0, 1, "gradient Shapley(null)")
	ratEq(t, v[3], 0, 1, "gradient Shapley(null)")
	// Root is a single negative literal: blocking fact, value −1 by the
	// conditioned-count difference (Γ−Δ = −1 at every coalition size).
	v, err = ShapleyAllStrategy(context.Background(), b.Lit(-2), endo, 1, StrategyGradient)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, v[2], -1, 1, "gradient Shapley(blocker)")
	perFact, err := ShapleyAllStrategy(context.Background(), b.Lit(-2), endo, 1, StrategyPerFact)
	if err != nil {
		t.Fatal(err)
	}
	valuesIdentical(t, v, perFact, "gradient vs per-fact (negative literal)")
}

func TestGradientCancelledContext(t *testing.T) {
	b := dnnf.NewBuilder()
	c := thresholdTestDNNF(b, 12, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ShapleyAllStrategy(ctx, c, factRange(12), 4, StrategyGradient); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResolveStrategyAuto pins StrategyAuto to the gradient whatever the
// circuit, and explicit choices pass through untouched.
func TestResolveStrategyAuto(t *testing.T) {
	for in, want := range map[ShapleyStrategy]ShapleyStrategy{
		StrategyAuto:     StrategyGradient,
		StrategyPerFact:  StrategyPerFact,
		StrategyGradient: StrategyGradient,
	} {
		if got := resolveStrategy(in); got != want {
			t.Errorf("resolveStrategy(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestParseShapleyStrategy(t *testing.T) {
	cases := map[string]ShapleyStrategy{
		"":         StrategyAuto,
		"auto":     StrategyAuto,
		"per-fact": StrategyPerFact,
		"perfact":  StrategyPerFact,
		"gradient": StrategyGradient,
	}
	for in, want := range cases {
		got, err := ParseShapleyStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseShapleyStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseShapleyStrategy("bogus"); err == nil {
		t.Error("ParseShapleyStrategy(bogus) succeeded, want error")
	}
	for _, s := range []ShapleyStrategy{StrategyAuto, StrategyPerFact, StrategyGradient} {
		round, err := ParseShapleyStrategy(s.String())
		if err != nil || round != s {
			t.Errorf("round-trip %v via %q failed: %v, %v", s, s.String(), round, err)
		}
	}
}

// TestBinomialRowMemoized: the memoized rows match Pascal's identity and
// repeated calls return consistent contents.
func TestBinomialRowMemoized(t *testing.T) {
	for n := 1; n <= 12; n++ {
		row := binomialRow(n)
		prev := binomialRow(n - 1)
		for k := 0; k <= n; k++ {
			want := new(big.Int)
			if k <= n-1 {
				want.Add(want, prev[k])
			}
			if k-1 >= 0 && k-1 <= n-1 {
				want.Add(want, prev[k-1])
			}
			if row[k].Cmp(want) != 0 {
				t.Fatalf("C(%d,%d) = %v, want %v", n, k, row[k], want)
			}
		}
	}
	again := binomialRow(7)
	for k, v := range binomialRow(7) {
		if v.Cmp(again[k]) != 0 {
			t.Fatal("repeated binomialRow call disagrees with itself")
		}
	}
	// The word arithmetic's Pascal table agrees with the big.Int rows up to
	// its last row, whose middle entry C(64,32) needs 61 bits.
	for n := 0; n <= maxWordSupport; n++ {
		for k, v := range binomialRow(n) {
			if !v.IsUint64() || v.Uint64() != wordBinomials[n][k] {
				t.Fatalf("wordBinomials[%d][%d] = %d, want %v", n, k, wordBinomials[n][k], v)
			}
		}
	}
}

// TestShapleyCoefficientsCopies: the public accessor hands out mutable
// copies; mutating them must not corrupt the shared memo.
func TestShapleyCoefficientsCopies(t *testing.T) {
	a := ShapleyCoefficients(5)
	a[0].SetInt64(999)
	b := ShapleyCoefficients(5)
	if b[0].Cmp(big.NewRat(999, 1)) == 0 {
		t.Fatal("mutating ShapleyCoefficients result corrupted the memoized row")
	}
	ratEq(t, b[0], 1, 5, "coef[0] for n=5")
}
