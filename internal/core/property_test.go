package core

// Property-based tests (testing/quick) for the invariants that hold for
// arbitrary inputs: Shapley axioms over random lineages, consistency of the
// #SAT_k spectrum with plain model counting, and coefficient identities.

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// TestQuickCoefficientsSymmetry: coef[k] = coef[n−1−k] (the Shapley weights
// are symmetric around the middle coalition size).
func TestQuickCoefficientsSymmetry(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%20) + 1
		coefs := ShapleyCoefficients(n)
		for k := 0; k < n; k++ {
			if coefs[k].Cmp(coefs[n-1-k]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCoefficientsPositive: every coefficient is strictly positive and
// at most 1.
func TestQuickCoefficientsPositive(t *testing.T) {
	one := big.NewRat(1, 1)
	f := func(raw uint8) bool {
		n := int(raw%20) + 1
		for _, c := range ShapleyCoefficients(n) {
			if c.Sign() <= 0 || c.Cmp(one) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSATkSpectrumSums: Σ_k #SAT_k(C) = #SAT(C) on compiled random
// lineages, and the spectrum is bounded by the binomial row.
func TestQuickSATkSpectrumSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cb := circuit.NewBuilder()
		elin := randomMonotoneCircuit(rng, cb, 2+rng.Intn(5), 3)
		endo := endoOf(elin)
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
		if err != nil {
			return false
		}
		counts := ComputeAllSATk(res.DNNF)
		total := new(big.Int)
		vars := res.DNNF.Vars()
		for k, c := range counts {
			if c.Sign() < 0 {
				return false
			}
			if c.Cmp(new(big.Int).Binomial(int64(len(vars)), int64(k))) > 0 {
				return false
			}
			total.Add(total, c)
		}
		return total.Cmp(dnnf.CountModels(res.DNNF, vars)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickShapleyAxioms checks three Shapley axioms on random monotone
// lineages: efficiency (sum = q(all)−q(∅)), null players (facts outside the
// support get 0), and non-negativity (monotone games have non-negative
// values).
func TestQuickShapleyAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cb := circuit.NewBuilder()
		elin := randomMonotoneCircuit(rng, cb, 2+rng.Intn(5), 3)
		endo := endoOf(elin)
		// Add one guaranteed null player beyond the support.
		null := endo[len(endo)-1] + 1
		endo = append(endo, null)
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
		if err != nil {
			return false
		}
		if res.Values[null].Sign() != 0 {
			return false
		}
		for _, v := range res.Values {
			if v.Sign() < 0 {
				return false
			}
		}
		all := map[circuit.Var]bool{}
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
		return res.Values.Sum().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSymmetryAxiom: symmetric facts (interchangeable in the lineage)
// receive equal values. We construct games of the form (x1∧y) ∨ (x2∧y) ∨ …
// where all xi are symmetric by construction.
func TestQuickSymmetryAxiom(t *testing.T) {
	f := func(raw uint8) bool {
		k := int(raw%4) + 2 // 2..5 symmetric facts
		cb := circuit.NewBuilder()
		y := cb.Variable(circuit.Var(100))
		var disjuncts []*circuit.Node
		for i := 1; i <= k; i++ {
			disjuncts = append(disjuncts, cb.And(cb.Variable(circuit.Var(i)), y))
		}
		elin := cb.Or(disjuncts...)
		endo := endoOf(elin)
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
		if err != nil {
			return false
		}
		first := res.Values[db.FactID(1)]
		for i := 2; i <= k; i++ {
			if res.Values[db.FactID(i)].Cmp(first) != 0 {
				return false
			}
		}
		// y is strictly more important than any single xi for k ≥ 2.
		return res.Values[db.FactID(100)].Cmp(first) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func endoOf(elin *circuit.Node) []db.FactID {
	vars := circuit.Vars(elin)
	endo := make([]db.FactID, len(vars))
	for i, v := range vars {
		endo[i] = db.FactID(v)
	}
	return endo
}
