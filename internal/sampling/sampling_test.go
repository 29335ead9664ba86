package sampling

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/flights"
)

// flightsGame builds the sampling game for the running example.
func flightsGame(t *testing.T) (*Game, *flights.Facts) {
	t.Helper()
	d, fs := flights.Build()
	b := circuit.NewBuilder()
	elin, err := engine.EvalBoolean(d, flights.Query(), b, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewGame(elin), fs
}

// TestNewGameAllocations: flattening a circuit makes the same number of
// allocations whatever its size, since the program, its children and its
// players each take one. The circuits are ∨s of k two-variable ∧s over a
// chain of variables, 2k+2 gates (3 for k = 1, where the ∨ folds away).
func TestNewGameAllocations(t *testing.T) {
	var first float64
	for i, k := range []int{1, 18, 200} {
		b := circuit.NewBuilder()
		terms := make([]*circuit.Node, k)
		for j := range terms {
			terms[j] = b.And(b.Variable(circuit.Var(j+1)), b.Variable(circuit.Var(j+2)))
		}
		root := b.Or(terms...)
		gates := len(NewGame(root).prog)
		got := testing.AllocsPerRun(20, func() { NewGame(root) })
		t.Logf("%d gates: %.0f allocations", gates, got)
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("%d gates: %.0f allocations, want %.0f as for the smallest circuit", gates, got, first)
		}
	}
}

func TestGameEvalMatchesCircuit(t *testing.T) {
	d, _ := flights.Build()
	b := circuit.NewBuilder()
	elin, err := engine.EvalBoolean(d, flights.Query(), b, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(elin)
	if g.NumPlayers() != 7 {
		t.Fatalf("players = %d, want 7 (a8 absent from lineage)", g.NumPlayers())
	}
	present := make([]bool, g.NumPlayers())
	assign := make(map[circuit.Var]bool)
	for mask := 0; mask < 1<<g.NumPlayers(); mask++ {
		for i, p := range g.Players {
			in := mask&(1<<i) != 0
			present[i] = in
			assign[circuit.Var(p)] = in
		}
		if g.Eval(present) != circuit.Eval(elin, assign) {
			t.Fatalf("Game.Eval diverges from circuit.Eval at mask %07b", mask)
		}
	}
}

// TestExactBySubsets reproduces the paper's exact values as floats.
func TestExactBySubsets(t *testing.T) {
	g, fs := flightsGame(t)
	exact := ExactBySubsets(g)
	// Careful: the game has 7 players (a8 missing), but the paper's values
	// are over 8 facts. Shapley over the 7-player game differs from the
	// 8-fact game only by a8's null-player removal — values are unchanged
	// because adding null players does not affect the others' values.
	want := map[db.FactID]float64{
		fs.A[1].ID: 43.0 / 105,
		fs.A[2].ID: 23.0 / 210,
		fs.A[3].ID: 23.0 / 210,
		fs.A[4].ID: 23.0 / 210,
		fs.A[5].ID: 23.0 / 210,
		fs.A[6].ID: 8.0 / 105,
		fs.A[7].ID: 8.0 / 105,
	}
	for id, w := range want {
		if math.Abs(exact[id]-w) > 1e-12 {
			t.Errorf("exact[%d] = %v, want %v", id, exact[id], w)
		}
	}
}

func TestMonteCarloConverges(t *testing.T) {
	g, _ := flightsGame(t)
	exact := ExactBySubsets(g)
	approx, err := g.MonteCarloCI(context.Background(), 97, Config{MinPermutations: 4000, TargetCI: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Players {
		if v := approx.Estimates[p].Value; math.Abs(v-exact[p]) > 0.03 {
			t.Errorf("MC[%d] = %v, exact %v (off by %v)", p, v, exact[p], math.Abs(v-exact[p]))
		}
	}
}

// TestKernelSHAPExhaustiveRecoversShapley exercises the known property that
// the SHAP kernel regression over all coalitions yields the exact Shapley
// values.
func TestKernelSHAPExhaustiveRecoversShapley(t *testing.T) {
	g, _ := flightsGame(t)
	exact := ExactBySubsets(g)
	got := KernelSHAPExhaustive(g)
	for _, p := range g.Players {
		if math.Abs(got[p]-exact[p]) > 1e-5 {
			t.Errorf("KernelSHAP exhaustive[%d] = %v, want %v", p, got[p], exact[p])
		}
	}
}

func TestKernelSHAPSampledReasonable(t *testing.T) {
	g, _ := flightsGame(t)
	exact := ExactBySubsets(g)
	rng := rand.New(rand.NewSource(13))
	got := KernelSHAP(g, 50*g.NumPlayers(), rng)
	for _, p := range g.Players {
		if math.Abs(got[p]-exact[p]) > 0.15 {
			t.Errorf("KernelSHAP[%d] = %v, want ≈ %v", p, got[p], exact[p])
		}
	}
}

func TestSinglePlayerGames(t *testing.T) {
	d, _ := flights.Build()
	b := circuit.NewBuilder()
	elin, err := engine.EvalBoolean(d, flights.DirectQuery(), b, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(elin)
	if g.NumPlayers() != 1 {
		t.Fatalf("players = %d, want 1", g.NumPlayers())
	}
	rng := rand.New(rand.NewSource(3))
	if v := KernelSHAP(g, 10, rng)[g.Players[0]]; v != 1 {
		t.Errorf("KernelSHAP dictator = %v, want 1", v)
	}
	if v := KernelSHAPExhaustive(g)[g.Players[0]]; v != 1 {
		t.Errorf("KernelSHAPExhaustive dictator = %v, want 1", v)
	}
	mc, err := g.MonteCarloCI(context.Background(), 3, Config{MinPermutations: 10, TargetCI: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := mc.Estimates[g.Players[0]].Value; v != 1 {
		t.Errorf("MonteCarloCI dictator = %v, want 1", v)
	}
}

func TestEmptyGame(t *testing.T) {
	b := circuit.NewBuilder()
	g := NewGame(b.False())
	if g.NumPlayers() != 0 {
		t.Fatalf("players = %d, want 0", g.NumPlayers())
	}
	mc, err := g.MonteCarloCI(context.Background(), 3, Config{MinPermutations: 10, TargetCI: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Estimates) != 0 || len(KernelSHAP(g, 10, rand.New(rand.NewSource(3)))) != 0 {
		t.Error("empty game produced values")
	}
	if g.Eval(nil) {
		t.Error("false lineage evaluated true")
	}
}

func TestFingerprintStable(t *testing.T) {
	g, _ := flightsGame(t)
	g2, _ := flightsGame(t)
	if g.Fingerprint() != g2.Fingerprint() {
		t.Error("rebuilding the same lineage changed the fingerprint")
	}
	if g.Fingerprint() != g.Fingerprint() {
		t.Error("fingerprint is not idempotent")
	}
}

func TestDeriveSeedMixesOverride(t *testing.T) {
	fp := uint64(0x1234)
	base := DeriveSeed(fp, 0)
	if base == DeriveSeed(fp, 1) || base == DeriveSeed(fp, -1) {
		t.Error("override did not change the derived seed")
	}
	if DeriveSeed(fp, 5) != DeriveSeed(fp, 5) {
		t.Error("DeriveSeed is not deterministic")
	}
	if DeriveSeed(fp, 0) == DeriveSeed(fp+1, 0) {
		t.Error("fingerprint did not change the derived seed")
	}
}

func TestMonteCarloCIDeterministicAndCalibratedShape(t *testing.T) {
	g, _ := flightsGame(t)
	cfg := Config{MinPermutations: 300, TargetCI: 1}
	a, err := g.MonteCarloCI(context.Background(), 17, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.MonteCarloCI(context.Background(), 17, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Permutations != 300 || a.Seed != 17 {
		t.Fatalf("spend = %d perms seed %d, want 300 perms seed 17", a.Permutations, a.Seed)
	}
	for _, p := range g.Players {
		if a.Estimates[p] != b.Estimates[p] {
			t.Fatalf("same seed diverged on %d: %+v vs %+v", p, a.Estimates[p], b.Estimates[p])
		}
		e := a.Estimates[p]
		if e.CILow > e.Value || e.Value > e.CIHigh {
			t.Errorf("player %d: value %v outside CI [%v, %v]", p, e.Value, e.CILow, e.CIHigh)
		}
	}
	exact := ExactBySubsets(g)
	for _, p := range g.Players {
		if math.Abs(a.Estimates[p].Value-exact[p]) > 0.1 {
			t.Errorf("player %d: estimate %v far from exact %v", p, a.Estimates[p].Value, exact[p])
		}
	}
}

func TestMonteCarloCIRefinesTowardTarget(t *testing.T) {
	g, _ := flightsGame(t)
	a, err := g.MonteCarloCI(context.Background(), 3, Config{MinPermutations: 64, TargetCI: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if a.Permutations <= 64 {
		t.Fatalf("refinement never ran past the floor (%d permutations)", a.Permutations)
	}
	widest := 0.0
	for _, p := range g.Players {
		if hw := a.Estimates[p].CIHigh - a.Estimates[p].Value; hw > widest {
			widest = hw
		}
	}
	// Either the target was reached or the permutation ceiling stopped us.
	if widest > 0.04 && a.Permutations < 16*64 {
		t.Errorf("stopped at half-width %v with only %d permutations", widest, a.Permutations)
	}
}

func TestMonteCarloCICancellation(t *testing.T) {
	g, _ := flightsGame(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.MonteCarloCI(ctx, 1, Config{}); err == nil {
		t.Fatal("cancelled context produced estimates")
	}
}
