package sampling

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/imdb"
	"repro/internal/tpch"
)

// monotoneCircuit builds a monotone circuit from data through the builder.
// The first byte picks 2–10 variables; every later byte starts an ∧ or ∨
// gate of 2–4 children (fewer when the bytes run out), each picked by the
// next byte: a constant one time in 32, else one of the last four nodes or
// any variable or gate built so far, so subcircuits are shared. A gate the
// builder folds to a constant is dropped. The root is the last gate (the
// last variable when there is none).
func monotoneCircuit(b *circuit.Builder, data []byte) *circuit.Node {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	var pool []*circuit.Node
	for v := 2 + next()%9; v > 0; v-- {
		pool = append(pool, b.Variable(circuit.Var(v)))
	}
	for len(data) > 2 {
		op := next()
		kids := make([]*circuit.Node, min(2+op/2%3, len(data)))
		for i := range kids {
			switch c := next(); {
			case c < 8:
				kids[i] = b.Const(c%2 == 0)
			case c%2 == 0:
				kids[i] = pool[len(pool)-1-c/2%min(len(pool), 4)]
			default:
				kids[i] = pool[c/2%len(pool)]
			}
		}
		gate := b.And
		if op%2 == 1 {
			gate = b.Or
		}
		if g := gate(kids...); g.Kind != circuit.KindConst {
			pool = append(pool, g)
		}
	}
	return pool[len(pool)-1]
}

// prefixScanOf returns a copy of g that MonteCarloCI samples by the prefix
// scan, the oracle the pivot pass must match.
func prefixScanOf(g *Game) *Game {
	o := *g
	o.monotone = false
	o.evalBuf = nil
	return &o
}

// requireSameApprox runs g's MonteCarloCI on both paths and fails unless
// the estimates, permutation count and seed are equal with ==.
func requireSameApprox(t *testing.T, name string, g *Game, seed int64, cfg Config) {
	t.Helper()
	if !g.monotone {
		t.Fatalf("%s: a lineage without negation is not sampled by its pivot", name)
	}
	got, err := g.MonteCarloCI(context.Background(), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prefixScanOf(g).MonteCarloCI(context.Background(), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Permutations != want.Permutations || got.Seed != want.Seed {
		t.Fatalf("%s %+v: pivot pass spent %d permutations at seed %d, prefix scan %d at seed %d",
			name, cfg, got.Permutations, got.Seed, want.Permutations, want.Seed)
	}
	if !maps.Equal(got.Estimates, want.Estimates) {
		for _, p := range g.Players {
			if got.Estimates[p] != want.Estimates[p] {
				t.Fatalf("%s %+v: fact %d pivot pass %+v, prefix scan %+v",
					name, cfg, p, got.Estimates[p], want.Estimates[p])
			}
		}
		t.Fatalf("%s %+v: estimates cover different facts", name, cfg)
	}
}

// pivotConfigs are the two configs the pivot pass is checked under: a
// fixed spend, and the default refining run whose stopping rule reads the
// tallies after every batch.
var pivotConfigs = []Config{{TargetCI: 1}, {}}

// TestPivotMatchesPrefixScanRandom: on random monotone circuits the pivot
// pass returns the prefix scan's Approx exactly.
func TestPivotMatchesPrefixScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+rng.Intn(80))
		rng.Read(data)
		g := NewGame(monotoneCircuit(circuit.NewBuilder(), data))
		for _, cfg := range pivotConfigs {
			cfg.MinPermutations = 1 + rng.Intn(100)
			requireSameApprox(t, "random circuit", g, rng.Int63(), cfg)
		}
	}
}

// TestPivotMatchesPrefixScanCorpus: the same on the answer lineages the
// explain-degraded workload samples, IMDB 11d, 15d and 16a at scale 0.5,
// plus TPC-H q9 at scale 4 for its wide lineages.
func TestPivotMatchesPrefixScanCorpus(t *testing.T) {
	var lineages []*circuit.Node
	im := imdb.Generate(imdb.DefaultConfig().Scaled(0.5))
	for _, bq := range imdb.Queries() {
		if bq.Name != "11d" && bq.Name != "15d" && bq.Name != "16a" {
			continue
		}
		answers, err := engine.Eval(im, bq.Q, circuit.NewBuilder(), engine.Options{Mode: engine.ModeEndogenous})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			lineages = append(lineages, a.Lineage)
		}
	}
	tp := tpch.Generate(tpch.DefaultConfig().Scaled(4))
	for _, bq := range tpch.Queries() {
		if bq.Name != "q9" {
			continue
		}
		answers, err := engine.Eval(tp, bq.Q, circuit.NewBuilder(), engine.Options{Mode: engine.ModeEndogenous})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			lineages = append(lineages, a.Lineage)
		}
	}
	lo, hi := math.MaxInt, 0
	for i, lin := range lineages {
		g := NewGame(lin)
		lo, hi = min(lo, g.NumPlayers()), max(hi, g.NumPlayers())
		for _, cfg := range pivotConfigs {
			requireSameApprox(t, "corpus lineage", g, DeriveSeed(g.Fingerprint(), int64(i)), cfg)
		}
	}
	if len(lineages) != 37 || lo != 4 || hi != 188 {
		t.Errorf("corpus has %d lineages of %d–%d facts, want 37 of 4–188", len(lineages), lo, hi)
	}
}

// TestMonteCarloEvals pins Approx.Evals, the count of circuit passes, for
// one seeded lineage on each path: one pass per permutation for the pivot,
// n+1 for the prefix scan.
func TestMonteCarloEvals(t *testing.T) {
	g, _ := flightsGame(t)
	for _, tc := range []struct {
		name         string
		g            *Game
		perms, evals int
	}{
		{"pivot pass", g, 384, 384},
		{"prefix scan", prefixScanOf(g), 384, 384 * 8},
	} {
		ap, err := tc.g.MonteCarloCI(context.Background(), 17, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ap.Permutations != tc.perms || ap.Evals != tc.evals {
			t.Errorf("%s: %d permutations, %d evals; want %d, %d",
				tc.name, ap.Permutations, ap.Evals, tc.perms, tc.evals)
		}
	}
}

// TestNegationTakesPrefixScan: a lineage with a negation can flip more than
// once along a permutation, so it is sampled by the prefix scan, n+1
// passes per permutation, and still converges to the exact values.
func TestNegationTakesPrefixScan(t *testing.T) {
	b := circuit.NewBuilder()
	x := func(v int) *circuit.Node { return b.Variable(circuit.Var(v)) }
	// (x1 ∧ ¬x2) ∨ (x2 ∧ x3) ∨ (¬x1 ∧ x4): x1 and x2 each have marginals
	// of both signs.
	lin := b.Or(b.And(x(1), b.Not(x(2))), b.And(x(2), x(3)), b.And(b.Not(x(1)), x(4)))
	g := NewGame(lin)
	if g.monotone {
		t.Fatal("a lineage with a negation is marked monotone")
	}
	ap, err := g.MonteCarloCI(context.Background(), 3, Config{MinPermutations: 20000, TargetCI: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := ap.Permutations * (g.NumPlayers() + 1); ap.Evals != want {
		t.Errorf("evals = %d, want %d (n+1 per permutation)", ap.Evals, want)
	}
	exact := ExactBySubsets(g)
	for _, p := range g.Players {
		if v := ap.Estimates[p].Value; math.Abs(v-exact[p]) > 0.02 {
			t.Errorf("fact %d: estimate %v, exact %v", p, v, exact[p])
		}
	}
}

// FuzzPivotSampling: on a monotone circuit built from the fuzz bytes
// through the builder, with shared subcircuits and constants, the pivot
// pass returns the prefix scan's Approx exactly for a fuzzed seed and
// MinPermutations, with and without CI refinement.
func FuzzPivotSampling(f *testing.F) {
	f.Add([]byte{4, 0, 2, 3, 1, 5, 4, 6, 2, 7}, int64(1), uint8(10), false)
	f.Add([]byte{9, 3, 0, 4, 5, 6, 2, 1, 7, 8, 9, 8, 3, 10, 11, 12}, int64(-7), uint8(200), true)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, minPerms uint8, refine bool) {
		if len(data) > 512 {
			data = data[:512]
		}
		g := NewGame(monotoneCircuit(circuit.NewBuilder(), data))
		cfg := Config{MinPermutations: 1 + int(minPerms), TargetCI: 1}
		if refine {
			cfg.TargetCI = 0
		}
		requireSameApprox(t, "fuzzed circuit", g, seed, cfg)
	})
}
