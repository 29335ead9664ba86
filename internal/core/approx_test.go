package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/tpch"
)

func TestParseExplainMode(t *testing.T) {
	cases := []struct {
		in   string
		want ExplainMode
		err  bool
	}{
		{"", ModeAuto, false},
		{"auto", ModeAuto, false},
		{"exact", ModeExact, false},
		{"approx", ModeApproximate, false},
		{"approximate", ModeApproximate, false},
		{" Approximate ", ModeApproximate, false},
		{"fast", ModeAuto, true},
	}
	for _, c := range cases {
		got, err := ParseExplainMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseExplainMode(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseExplainMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestExplainBudgetEnabled(t *testing.T) {
	cases := []struct {
		b    ExplainBudget
		want bool
	}{
		{ExplainBudget{}, false},
		{ExplainBudget{MinSamples: 100}, false},
		{ExplainBudget{TargetCI: 0.01}, false},
		{ExplainBudget{MaxNodes: 10}, true},
		{ExplainBudget{Deadline: time.Second}, true},
		{ExplainBudget{Mode: ModeApproximate}, true},
		{ExplainBudget{Mode: ModeExact, MaxNodes: 10, Deadline: time.Second}, false},
	}
	for _, c := range cases {
		if got := c.b.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.b, got, c.want)
		}
	}
}

// TestApproxStageCoversEveryFact checks that every requested endogenous fact
// gets an estimate with ordered bounds containing its value — including a8,
// which is absent from the lineage and must be pinned to exact zero.
func TestApproxStageCoversEveryFact(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := ApproxStage(context.Background(), elin, endo, ExplainBudget{
		Mode: ModeApproximate, MinSamples: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != len(endo) {
		t.Fatalf("estimates cover %d facts, want %d", len(res.Estimates), len(endo))
	}
	if res.Permutations < 128 || res.Evals <= 0 {
		t.Errorf("sampling spend: %d permutations, %d evals", res.Permutations, res.Evals)
	}
	for _, id := range endo {
		e, ok := res.Estimates[id]
		if !ok {
			t.Fatalf("fact %d has no estimate", id)
		}
		for _, v := range []float64{e.Value, e.CILow, e.CIHigh} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("fact %d has non-finite estimate %+v", id, e)
			}
		}
		if e.CILow > e.Value || e.Value > e.CIHigh {
			t.Errorf("fact %d value %v outside its CI [%v, %v]", id, e.Value, e.CILow, e.CIHigh)
		}
	}
	if e := res.Estimates[fs.A[8].ID]; e != (Estimate{}) {
		t.Errorf("a8 (absent from lineage) estimate = %+v, want exact zero", e)
	}
	if top := res.Ranking()[0]; top != fs.A[1].ID {
		t.Errorf("top-ranked fact = %d, want a1 (%d)", top, fs.A[1].ID)
	}
}

func TestApproxStageDeterministicSeed(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	b := ExplainBudget{Mode: ModeApproximate, MinSamples: 100}
	a, err := ApproxStage(context.Background(), elin, endo, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ApproxStage(context.Background(), elin, endo, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed != c.Seed {
		t.Fatalf("seeds diverge: %d vs %d", a.Seed, c.Seed)
	}
	for id, ea := range a.Estimates {
		if ec := c.Estimates[id]; ea != ec {
			t.Fatalf("fact %d: %+v vs %+v for identical budgets", id, ea, ec)
		}
	}
	b.Seed = 7
	d, err := ApproxStage(context.Background(), elin, endo, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seed == a.Seed {
		t.Error("seed override did not perturb the derived seed")
	}
}

// TestHybridBudgetedMaxNodesFallsBack starves the compiler: the request must
// degrade to marked sampled estimates, not error.
func TestHybridBudgetedMaxNodesFallsBack(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := Hybrid(context.Background(), elin, endo,
		PipelineOptions{CompileTimeout: 10 * time.Second, ShapleyTimeout: 10 * time.Second},
		ExplainBudget{MaxNodes: 1, MinSamples: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodApprox {
		t.Fatalf("method = %v, want approximate", res.Method)
	}
	if res.Approx == nil || len(res.Ranking) != len(endo) {
		t.Fatal("approx fallback missing estimates or ranking")
	}
	if res.Values != nil || res.Proxy != nil {
		t.Error("approx fallback should carry neither exact nor proxy values")
	}
	if top := res.Ranking[0]; top != fs.A[1].ID {
		t.Errorf("top-ranked fact = %d, want a1 (%d)", top, fs.A[1].ID)
	}
}

// TestHybridBudgetedDeadlineFallsBack arms a deadline that expires during
// the exact attempt (mid-compile at the latest): the request must fall
// back to sampling, not surface the deadline error.
func TestHybridBudgetedDeadlineFallsBack(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	res, err := Hybrid(context.Background(), elin, endo, PipelineOptions{},
		ExplainBudget{Deadline: time.Nanosecond, MinSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodApprox {
		t.Fatalf("method = %v, want approximate", res.Method)
	}
}

// TestHybridBudgetedExactWithinBudget: a generous budget leaves the exact
// path untouched — same values as an unbudgeted run.
func TestHybridBudgetedExactWithinBudget(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := Hybrid(context.Background(), elin, endo, PipelineOptions{},
		ExplainBudget{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodExact {
		t.Fatalf("method = %v, want exact", res.Method)
	}
	ratEq(t, res.Values[fs.A[1].ID], 43, 105, "budgeted exact Shapley(a1)")
}

// TestHybridBudgetedCallerCancel: the caller's own context aborting must
// surface as an error, not an approximate answer nobody is waiting for.
func TestHybridBudgetedCallerCancel(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Hybrid(ctx, elin, endo, PipelineOptions{}, ExplainBudget{Deadline: time.Second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled caller got an answer")
	}
}

// calibrationLineage is one (lineage, endogenous facts, exact values) triple
// the calibration property test samples over.
type calibrationLineage struct {
	name  string
	elin  *circuit.Node
	endo  []db.FactID
	exact map[db.FactID]float64
}

// tpchCalibrationLineage grounds a small TPC-H instance and picks one
// answer's lineage with enough players to be interesting but few enough
// that the exact pipeline is instant.
func tpchCalibrationLineage(t *testing.T) *calibrationLineage {
	t.Helper()
	d := tpch.Generate(tpch.Config{
		Customers: 8, OrdersPerCustomer: 2, LinesPerOrder: 3,
		Parts: 12, Suppliers: 5, Seed: 42,
	})
	for _, bq := range tpch.Queries() {
		cb := circuit.NewBuilder()
		answers, err := engine.Eval(d, bq.Q, cb, engine.Options{Mode: engine.ModeEndogenous})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			g := sampling.NewGame(a.Lineage)
			if n := g.NumPlayers(); n < 3 || n > 10 {
				continue
			}
			endo := make([]db.FactID, len(g.Players))
			copy(endo, g.Players)
			return &calibrationLineage{name: "tpch/" + bq.Name, elin: a.Lineage, endo: endo}
		}
	}
	t.Fatal("no TPC-H answer lineage with 3–10 players found")
	return nil
}

// TestCalibration is the calibration property test: across ≥ 20 seeds on
// the flights running example and one TPC-H lineage, the sampler's 95%
// confidence intervals must cover the exact Shapley values (computed as
// big.Rat by the exact pipeline) at close to the nominal rate, and the
// Kernel SHAP estimator must agree with the Monte Carlo estimates within
// tolerance. Failures print the offending seed so the run is reproducible.
func TestCalibration(t *testing.T) {
	felin, fendo, _ := flightsELin(t)
	lineages := []*calibrationLineage{
		{name: "flights", elin: felin, endo: fendo},
		tpchCalibrationLineage(t),
	}
	const (
		seeds       = 24
		perms       = 600
		minCoverage = 0.85 // nominal 0.95, slack for CLT approximation at R=600
		shapTol     = 0.15
	)
	for _, lin := range lineages {
		exact, err := ExplainCircuit(context.Background(), lin.elin, lin.endo, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lin.exact = make(map[db.FactID]float64, len(lin.endo))
		for id, v := range exact.Values {
			lin.exact[id], _ = v.Float64()
		}

		g := sampling.NewGame(lin.elin)
		covered, total := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			// TargetCI ≥ 1 disables refinement, so every trial spends exactly
			// perms permutations and is deterministic given the seed.
			ap, err := g.MonteCarloCI(context.Background(), seed, sampling.Config{
				MinPermutations: perms, TargetCI: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ap.Permutations != perms {
				t.Fatalf("%s seed %d: spent %d permutations, want exactly %d",
					lin.name, seed, ap.Permutations, perms)
			}
			for _, id := range g.Players {
				e := ap.Estimates[id]
				total++
				if lin.exact[id] >= e.CILow && lin.exact[id] <= e.CIHigh {
					covered++
				}
			}
		}
		if rate := float64(covered) / float64(total); rate < minCoverage {
			t.Errorf("%s: 95%% CIs cover exact values at rate %.3f (< %.2f) over seeds 1..%d",
				lin.name, rate, minCoverage, seeds)
		}

		// Kernel SHAP cross-check on one seed: both estimators approximate
		// the same exact values, so they must agree within tolerance.
		const shapSeed = 11
		ap, err := g.MonteCarloCI(context.Background(), shapSeed, sampling.Config{
			MinPermutations: perms, TargetCI: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		shap := sampling.KernelSHAP(g, 400*g.NumPlayers(), rand.New(rand.NewSource(shapSeed)))
		for _, id := range g.Players {
			if diff := math.Abs(ap.Estimates[id].Value - shap[id]); diff > shapTol {
				t.Errorf("%s seed %d: fact %d Monte Carlo %.4f vs Kernel SHAP %.4f (|Δ| = %.4f > %.2f)",
					lin.name, shapSeed, id, ap.Estimates[id].Value, shap[id], diff, shapTol)
			}
		}
	}
}
