package core

import (
	"math/big"

	"repro/internal/db"
	"repro/internal/dnnf"
)

// This file implements the Banzhaf value, a second game-theoretic
// responsibility measure over the same d-DNNF circuits. The paper's related
// work (Livshits et al.; Meliou et al.'s causality/responsibility) discusses
// alternative contribution measures; the Banzhaf value is the natural
// uniform-coalition variant of Shapley:
//
//	Banzhaf(q, Dn, Dx, f) = (1/2^{n-1}) Σ_{E ⊆ Dn\{f}} q(Dx∪E∪{f}) − q(Dx∪E)
//	                      = (#SAT(C[f→1]) − #SAT(C[f→0])) / 2^{n-1}
//
// counted over the n−1 remaining endogenous facts — so unlike Shapley it
// needs only plain model counts, not the #SAT_k spectrum, and is linear in
// the circuit size with no quadratic factor.

// BanzhafAll computes the Banzhaf value of every endogenous fact with
// respect to the Boolean function represented by the d-DNNF c. Facts outside
// the circuit support are null players with value 0.
func BanzhafAll(c *dnnf.Node, endo []db.FactID) Values {
	out := make(Values, len(endo))
	n := len(endo)
	if n == 0 {
		return out
	}
	denom := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	support := make(map[db.FactID]bool, c.NumVars())
	for _, v := range c.Vars() {
		support[db.FactID(v)] = true
	}
	b := dnnf.NewBuilder()
	universe := n - 1
	for _, f := range endo {
		if !support[f] {
			out[f] = new(big.Rat)
			continue
		}
		c1 := dnnf.Condition(b, c, map[int]bool{int(f): true})
		c0 := dnnf.Condition(b, c, map[int]bool{int(f): false})
		count1 := countOverUniverse(c1, universe)
		count0 := countOverUniverse(c0, universe)
		diff := new(big.Int).Sub(count1, count0)
		out[f] = new(big.Rat).SetFrac(diff, denom)
	}
	return out
}

// countOverUniverse counts models of c over a universe of the given size
// (which must be at least the support size).
func countOverUniverse(c *dnnf.Node, universe int) *big.Int {
	counts := ComputeAllSATk(c)
	total := new(big.Int)
	for _, v := range counts {
		total.Add(total, v)
	}
	gap := universe - c.NumVars()
	if gap > 0 {
		total.Lsh(total, uint(gap))
	}
	return total
}

// NaiveBanzhaf computes Banzhaf values by 2^n enumeration, the testing
// ground truth.
func NaiveBanzhaf(game BooleanGame, endo []db.FactID) (Values, error) {
	n := len(endo)
	if n > MaxNaiveFacts {
		return nil, errTooManyFacts(n)
	}
	vals := make([]bool, 1<<n)
	subset := make(map[db.FactID]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i, f := range endo {
			subset[f] = mask&(1<<i) != 0
		}
		vals[mask] = game(subset)
	}
	denom := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	out := make(Values, n)
	for i, f := range endo {
		diff := int64(0)
		bit := 1 << i
		for mask := 0; mask < 1<<n; mask++ {
			if mask&bit != 0 {
				continue
			}
			with, without := vals[mask|bit], vals[mask]
			if with && !without {
				diff++
			} else if !with && without {
				diff--
			}
		}
		out[f] = new(big.Rat).SetFrac(big.NewInt(diff), denom)
	}
	return out, nil
}

func errTooManyFacts(n int) error {
	return &tooManyFactsError{n}
}

type tooManyFactsError struct{ n int }

func (e *tooManyFactsError) Error() string {
	return "core: naive computation limited to 25 facts"
}
