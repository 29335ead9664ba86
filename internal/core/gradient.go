package core

// Gradient-mode Algorithm 1: compute every fact's conditioned #SAT_k count
// difference from TWO passes over the circuit instead of 2n conditionings.
//
// View each node as carrying the polynomial V_m(z) = Σ_k #SAT_k(m)·z^k over
// its own variable support (the bottom-up #SAT_k dynamic program of
// Lemma 4.5, with ∧ ↦ polynomial product and ∨ ↦ sum after binomial padding
// of gap variables). The root polynomial R(z) is then, in the style of
// Darwiche's circuit differentiation, a multilinear function of the leaf
// polynomials: decomposability guarantees each certificate (proof tree)
// contains at most one literal of each variable, so R is linear in every
// literal leaf and the partial derivative D_ℓ(z) = ∂R/∂V_ℓ is well defined.
// A single top-down pass computes all of them:
//
//   - D_root = 1
//   - ∧-gate g, child c: D_c += D_g · Π_{siblings s} V_s
//   - ∨-gate g, child c: D_c += D_g · C(gap, ·)   (gap padding, as bottom-up)
//
// For a variable f with positive-literal leaf ℓ⁺ and negative-literal leaf
// ℓ⁻, D_{ℓ⁺}(z) enumerates exactly the root models that set f true through a
// literal occurrence, weighted by the Hamming weight of the OTHER variables —
// i.e. the conditioned count vector Γ_f up to the models in which f is a gap
// ("smoothing") variable somewhere along the certificate. Those gap models
// set f freely, so they contribute the SAME polynomial to Γ_f (f→true) and
// Δ_f (f→false) and cancel in the difference Algorithm 1 consumes:
//
//   Γ_f(z) − Δ_f(z) = D_{ℓ⁺}(z) − D_{ℓ⁻}(z)
//
// padded to the endogenous universe exactly as the per-fact path pads its
// conditioned counts. The total cost is O(|C|·n²) arithmetic for ALL facts
// — an asymptotic factor-n improvement over the per-fact path's
// O(n·|C|·n²). Both passes run serially in topological order, in uint64
// words when the support has at most 64 facts and in big.Int above that
// (see wordArith for why wrapping words are exact).

import (
	"context"
	"math/big"

	"repro/internal/db"
	"repro/internal/dnnf"
)

// exactArith is a countArith whose vectors the gradient can read back as
// exact count differences.
type exactArith[E any] interface {
	countArith[E]
	// dotDiff sets num to Σ_i (p[i]−q[i])·w[i] over i < len(w); a nil p
	// or q reads as all-zero.
	dotDiff(num *big.Int, p, q []E, w []*big.Int)
}

// shapleyAllGradient computes the Shapley value of every endogenous fact via
// the two-pass gradient algorithm. It is exactly equivalent to the per-fact
// path (big.Rat-identical results).
func shapleyAllGradient(ctx context.Context, c *dnnf.Node, endo []db.FactID) (Values, error) {
	if c.NumVars() > maxWordSupport {
		return gradientValues(ctx, bigArith{}, c, endo)
	}
	return gradientValues(ctx, wordArith{}, c, endo)
}

// gradientValues is shapleyAllGradient in the arithmetic a.
func gradientValues[E any, A exactArith[E]](ctx context.Context, a A, c *dnnf.Node, endo []db.FactID) (Values, error) {
	n := len(endo)
	out := make(Values, n)
	support := c.NumVars()
	if support == 0 {
		// Constant circuit: every fact is a null player.
		for _, f := range endo {
			out[f] = new(big.Rat)
		}
		return out, ctx.Err()
	}
	pad := n - support
	if pad < 0 {
		// Mirror the per-fact path, which panics in PadToUniverse when the
		// circuit mentions variables outside the endogenous universe.
		panic("core: negative universe gap")
	}

	order, maxID := flattenDNNF(c)
	counts, err := satkPass(ctx, a, order, maxID)
	if err != nil {
		return nil, err
	}
	// Top-down: reversed topological order finalizes every node's
	// derivative before it propagates to its children. Every node below the
	// root receives a contribution, so each gets its accumulator up front,
	// all of them in one allocation.
	total := 0
	for _, m := range order {
		total += support - m.NumVars() + 1
	}
	store := vectors[E]{buf: a.zeros(total)}
	deriv := make([][]E, maxID+1)
	for _, m := range order {
		deriv[m.ID()] = store.take(a, support-m.NumVars()+1)
	}
	a.add(deriv[c.ID()], a.binomial(0)) // D_root = 1
	var prod prefixes[E]
	for i := len(order) - 1; i >= 0; i-- {
		if (len(order)-1-i)%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		propagateDeriv(a, order[i], counts, deriv, &prod)
	}

	// Harvest per-literal derivatives. Builders hash-cons literals, so each
	// literal normally has one leaf; summing keeps this robust either way.
	pos := make(map[int][]E)
	neg := make(map[int][]E)
	for _, m := range order {
		if m.Kind != dnnf.KindLit {
			continue
		}
		if m.Lit > 0 {
			pos[m.Lit] = addLitDeriv(a, pos[m.Lit], deriv[m.ID()])
		} else {
			neg[-m.Lit] = addLitDeriv(a, neg[-m.Lit], deriv[m.ID()])
		}
	}

	// Γ_f − Δ_f = D_{ℓ⁺} − D_{ℓ⁻}; the weights fold in its padding from the
	// circuit support to the endogenous universe (facts outside the support
	// pad both conditioned vectors identically, so the padded difference is
	// the difference padded).
	w, nFact := shapleyWeights(n, support)
	var num big.Int
	for _, f := range endo {
		p, q := pos[int(f)], neg[int(f)]
		if p == nil && q == nil {
			out[f] = new(big.Rat) // null player (outside the support)
			continue
		}
		a.dotDiff(&num, p, q, w)
		out[f] = new(big.Rat).SetFrac(&num, nFact)
	}
	return out, nil
}

// shapleyWeights returns the integer weights W[0..s−1] and n! that turn an
// unpadded count difference into a Shapley value: a fact whose difference
// Γ−Δ over the s−1 other support facts is diff has value
// Σ_i diff[i]·W[i] / n!. Padding diff to the n−1 other endogenous facts
// convolves it with C(n−s, ·), and Equation (2) weighs a coalition of size
// k by k!·(n−k−1)!/n!, so
//
//	W[i] = Σ_{j=0}^{n−s} C(n−s, j)·(i+j)!·(n−1−i−j)!.
func shapleyWeights(n, s int) (w []*big.Int, nFact *big.Int) {
	fact := make([]*big.Int, n+1) // fact[k] = k!
	fact[0] = big.NewInt(1)
	for k := 1; k <= n; k++ {
		fact[k] = new(big.Int).Mul(fact[k-1], big.NewInt(int64(k)))
	}
	padRow := binomialRow(n - s)
	w = make([]*big.Int, s)
	var t big.Int
	for i := range w {
		w[i] = new(big.Int)
		for j, c := range padRow {
			t.Mul(fact[i+j], fact[n-1-i-j])
			w[i].Add(w[i], t.Mul(&t, c))
		}
	}
	return w, fact[n]
}

// prefixes is the derivative pass's scratch for an ∧-gate's prefix and
// suffix products; every gate reuses it from its start.
type prefixes[E any] struct {
	vecs vectors[E]
	pref [][]E
}

// propagateDeriv pushes a node's finalized derivative to its children.
//
// For an ∧-gate the contribution to child i is D_g convolved with the count
// vectors of all siblings; prefix/suffix products, kept in p, make that one
// convolution per child instead of a quadratic sweep. For an ∨-gate the
// contribution is D_g padded by the child's gap-variable binomial row,
// mirroring the bottom-up smoothing.
func propagateDeriv[E any, A countArith[E]](a A, g *dnnf.Node, counts, deriv [][]E, p *prefixes[E]) {
	dg := deriv[g.ID()]
	if len(g.Children) == 0 {
		return
	}
	switch g.Kind {
	case dnnf.KindAnd:
		k := len(g.Children)
		p.vecs.off = 0
		// pref[i] = D_g ⊛ V_0 ⊛ … ⊛ V_{i−1}
		pref := append(p.pref[:0], dg)
		for i := 1; i < k; i++ {
			pref = append(pref, p.vecs.convolve(a, pref[i-1], counts[g.Children[i-1].ID()]))
		}
		p.pref = pref
		// Walk right-to-left maintaining the suffix product V_{i+1} ⊛ … so
		// child i receives pref[i] ⊛ suffix.
		var suf []E
		for i := k - 1; i >= 0; i-- {
			addDeriv(a, deriv[g.Children[i].ID()], pref[i], suf)
			if i > 0 {
				cv := counts[g.Children[i].ID()]
				if suf == nil {
					suf = cv
				} else {
					suf = p.vecs.convolve(a, suf, cv)
				}
			}
		}
	case dnnf.KindOr:
		for _, ch := range g.Children {
			var padRow []E
			if gap := g.NumVars() - ch.NumVars(); gap > 0 {
				padRow = a.binomial(gap)
			}
			addDeriv(a, deriv[ch.ID()], dg, padRow)
		}
	}
}

// addDeriv accumulates x ⊛ y (x alone when y is nil) into a child's
// derivative d. All contributions to one child have d's length,
// |support(root)| − |support(child)| + 1.
func addDeriv[E any, A countArith[E]](a A, d, x, y []E) {
	if y == nil {
		a.add(d, x)
	} else {
		a.addConvolve(d, x, y)
	}
}

// addLitDeriv merges derivative vectors of leaves carrying the same literal.
// With hash-consed builders the second case never triggers; it is kept for
// robustness against externally constructed circuits.
func addLitDeriv[E any, A countArith[E]](a A, dst, d []E) []E {
	if dst == nil {
		return d
	}
	sum := clone(a, dst)
	a.add(sum, d)
	return sum
}

func (wordArith) dotDiff(num *big.Int, p, q []uint64, w []*big.Int) {
	num.SetInt64(0)
	var t big.Int
	for i, wi := range w {
		var d uint64
		if p != nil {
			d = p[i]
		}
		if q != nil {
			d -= q[i]
		}
		if d != 0 {
			// The true difference lies within ±C(s−1, i) < 2^63 (see
			// wordArith), so its two's-complement reading is exact.
			num.Add(num, t.Mul(t.SetInt64(int64(d)), wi))
		}
	}
}

func (bigArith) dotDiff(num *big.Int, p, q []*big.Int, w []*big.Int) {
	num.SetInt64(0)
	var d big.Int
	for i, wi := range w {
		d.SetInt64(0)
		if p != nil {
			d.Set(p[i])
		}
		if q != nil {
			d.Sub(&d, q[i])
		}
		if d.Sign() != 0 {
			num.Add(num, d.Mul(&d, wi))
		}
	}
}
