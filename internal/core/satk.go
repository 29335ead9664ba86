// Package core implements the paper's primary contribution: exact Shapley
// value computation for database facts from deterministic and decomposable
// circuits (Algorithm 1, via the #SAT_k dynamic program of Lemma 4.5), the
// CNF Proxy heuristic (Algorithm 2 / Lemma 5.2), naive ground-truth
// computation for testing, the end-to-end pipeline of Figure 3, and the
// hybrid exact-with-timeout strategy of Section 6.3.
package core

import (
	"context"
	"math/big"
	"sync"

	"repro/internal/dnnf"
)

// flattenDNNF returns the nodes reachable from n in topological order
// (children before parents, so n itself comes last) together with the
// largest node ID, so dynamic programs over the DAG can use dense slices
// instead of maps and plain loops instead of recursion.
func flattenDNNF(n *dnnf.Node) (order []*dnnf.Node, maxID int) {
	dnnf.Visit(n, func(m *dnnf.Node) {
		order = append(order, m)
		if m.ID() > maxID {
			maxID = m.ID()
		}
	})
	return order, maxID
}

// countArith is the whole-vector arithmetic the #SAT_k pass and the
// gradient's derivative pass are written against, so each pass exists once
// and is instantiated per number type: wrapping uint64 words (wordArith),
// big.Int (bigArith) and float64 (floatArith, the ablation). Every operation
// handles a whole count vector, so calling through the type parameter costs
// one indirect call per vector, never one per entry.
type countArith[E any] interface {
	// zeros returns a fresh all-zero vector of length n.
	zeros(n int) []E
	// reset sets every entry of v to zero, in place.
	reset(v []E)
	// add accumulates src into dst entry by entry; len(dst) ≥ len(src).
	add(dst, src []E)
	// addConvolve accumulates the convolution of a and b into dst:
	// dst[i+j] += a[i]·b[j]. len(dst) ≥ len(a)+len(b)−1.
	addConvolve(dst, a, b []E)
	// binomial returns [C(n,0), …, C(n,n)], shared and read-only.
	binomial(n int) []E
}

// clone returns a fresh copy of v.
func clone[E any, A countArith[E]](a A, v []E) []E {
	out := a.zeros(len(v))
	a.add(out, v)
	return out
}

// convolve returns the coefficient-wise product of two count vectors,
// out[ℓ] = Σ_i x[i]·y[ℓ−i]: the counts of joint assignments of two
// variable-disjoint parts by total Hamming weight.
func convolve[E any, A countArith[E]](a A, x, y []E) []E {
	out := a.zeros(len(x) + len(y) - 1)
	a.addConvolve(out, x, y)
	return out
}

// maxWordSupport is the largest circuit support whose #SAT_k pass and
// derivative pass run in wrapping uint64 arithmetic (see wordArith).
const maxWordSupport = 64

// ComputeAllSATk computes #SAT_0(C), ..., #SAT_n(C) for the d-DNNF rooted at
// n, counted over the node's own variable support (Lemma 4.5). The returned
// slice has length n.NumVars()+1; entry ℓ is the number of satisfying
// assignments of Hamming weight ℓ. The computation is a bottom-up dynamic
// program, linear in the circuit size times the support size squared:
//
//   - literal v: [0, 1]; literal ¬v: [1, 0]
//   - ∧ (decomposable): convolution of the children's count vectors
//   - ∨ (deterministic): sum of children vectors, each first convolved with
//     the binomial row of its gap variables (Vars(g) \ Vars(child))
//
// Constants have empty support: true ↦ [1], false ↦ [0]. Supports of at
// most 64 variables are counted in machine words, larger ones in big.Int.
func ComputeAllSATk(n *dnnf.Node) []*big.Int {
	order, maxID := flattenDNNF(n)
	if n.NumVars() > maxWordSupport {
		// Background never cancels, so the pass cannot fail.
		memo, _ := satkPass(context.Background(), bigArith{}, order, maxID)
		return memo[n.ID()]
	}
	memo, _ := satkPass(context.Background(), wordArith{}, order, maxID)
	words := memo[n.ID()]
	out := bigArith{}.zeros(len(words))
	for i, w := range words {
		out[i].SetUint64(w)
	}
	return out
}

// FloatSATk is the float64 instance of ComputeAllSATk's pass, used by the
// ablation benchmark that quantifies the cost of exact arithmetic. It loses
// exactness (and overflows to +Inf) on large circuits and is not used by
// the exact algorithm.
func FloatSATk(n *dnnf.Node) []float64 {
	order, maxID := flattenDNNF(n)
	memo, _ := satkPass(context.Background(), floatArith{}, order, maxID)
	return memo[n.ID()]
}

// ctxCheckEvery is how many nodes a serial pass visits between checks of
// its context; the first node is always checked.
const ctxCheckEvery = 256

// satkPass runs the bottom-up #SAT_k dynamic program over order (as
// returned by flattenDNNF) and returns every node's count vector over its
// own support, indexed by node ID. The vectors share one allocation. It
// stops with ctx's error once ctx is done.
func satkPass[E any, A countArith[E]](ctx context.Context, a A, order []*dnnf.Node, maxID int) ([][]E, error) {
	total := 0
	for _, m := range order {
		total += m.NumVars() + 1
	}
	store := vectors[E]{buf: a.zeros(total)}
	var tmp vectors[E]
	memo := make([][]E, maxID+1)
	for i, m := range order {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v := store.take(a, m.NumVars()+1)
		satkNode(a, m, memo, v, &tmp)
		memo[m.ID()] = v
	}
	return memo, nil
}

// satkNode adds one node's #SAT_k vector, computed from its children's
// memoized vectors, into the zero vector v of length |support|+1. The
// partial products of an ∧-gate over more than two children go to tmp.
func satkNode[E any, A countArith[E]](a A, m *dnnf.Node, memo [][]E, v []E, tmp *vectors[E]) {
	one := a.binomial(0) // [C(0,0)] = [1]
	switch m.Kind {
	case dnnf.KindTrue:
		a.add(v, one)
	case dnnf.KindFalse:
	case dnnf.KindLit:
		if m.Lit > 0 {
			a.add(v[1:], one)
		} else {
			a.add(v, one)
		}
	case dnnf.KindAnd:
		switch len(m.Children) {
		case 0:
			a.add(v, one)
		case 1:
			a.add(v, memo[m.Children[0].ID()])
		default:
			tmp.off = 0
			last := len(m.Children) - 1
			x := memo[m.Children[0].ID()]
			for _, c := range m.Children[1:last] {
				x = tmp.convolve(a, x, memo[c.ID()])
			}
			a.addConvolve(v, x, memo[m.Children[last].ID()])
		}
	default: // dnnf.KindOr
		for _, c := range m.Children {
			if gap := m.NumVars() - c.NumVars(); gap > 0 {
				a.addConvolve(v, memo[c.ID()], a.binomial(gap))
			} else {
				a.add(v, memo[c.ID()])
			}
		}
	}
}

// vectors hands out zeroed count vectors from one buffer; a request that
// does not fit moves to a new, larger buffer, and the vectors taken before
// keep the old one.
type vectors[E any] struct {
	buf []E
	off int
}

// take returns a zero vector of length n.
func (p *vectors[E]) take(a countArith[E], n int) []E {
	if p.off+n > len(p.buf) {
		p.buf, p.off = a.zeros(max(n, 2*len(p.buf))), 0
	}
	v := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	a.reset(v)
	return v
}

// convolve returns x ⊛ y in a vector taken from p.
func (p *vectors[E]) convolve(a countArith[E], x, y []E) []E {
	v := p.take(a, len(x)+len(y)-1)
	a.addConvolve(v, x, y)
	return v
}

// PadToUniverse extends a #SAT_k vector counted over some support to a
// universe with `extra` additional unconstrained variables: each additional
// variable may be freely present or absent, so the vector is convolved with
// the binomial row C(extra, ·). This implements the circuit-completion step
// of Algorithm 1 (conjoining with (f' ∨ ¬f') for missing facts f') without
// materializing the completed circuit.
func PadToUniverse(counts []*big.Int, extra int) []*big.Int {
	if extra == 0 {
		return counts
	}
	if extra < 0 {
		panic("core: negative universe gap")
	}
	return convolve(bigArith{}, counts, binomialRow(extra))
}

// wordArith counts in uint64 words that wrap on overflow. That is exact for
// every vector read back, because each step of both passes (convolution,
// addition, binomial padding) is a ring operation: reduction mod 2^64 is a
// ring homomorphism from the integers, so every computed entry is the true
// integer mod 2^64, whatever intermediate products wrapped. A value read
// back is then exact whenever its true range fits in 64 bits, and for a
// support of s ≤ 64 facts both kinds do:
//
//   - ComputeAllSATk's entries are counts 0 ≤ #SAT_k ≤ C(s,k) < 2^64;
//   - the gradient reads only the literal difference
//     D_ℓ⁺[k] − D_ℓ⁻[k] = Γ_f[k] − Δ_f[k], where Γ_f and Δ_f count
//     assignments of the s−1 other facts, so it lies within ±C(s−1,k)
//     < 2^63 and int64(p[k]−q[k]) is the true difference.
type wordArith struct{}

// wordBinomials holds Pascal's triangle up to row maxWordSupport, the
// largest gap a word-counted circuit can have.
var wordBinomials = func() [][]uint64 {
	rows := make([][]uint64, maxWordSupport+1)
	rows[0] = []uint64{1}
	for n := 1; n <= maxWordSupport; n++ {
		row := make([]uint64, n+1)
		row[0], row[n] = 1, 1
		for k := 1; k < n; k++ {
			row[k] = rows[n-1][k-1] + rows[n-1][k]
		}
		rows[n] = row
	}
	return rows
}()

func (wordArith) zeros(n int) []uint64 { return make([]uint64, n) }

func (wordArith) reset(v []uint64) { clear(v) }

func (wordArith) add(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] += x
	}
}

func (wordArith) addConvolve(dst, a, b []uint64) {
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		d := dst[i : i+len(b)]
		for j, bj := range b {
			d[j] += ai * bj
		}
	}
}

func (wordArith) binomial(n int) []uint64 { return wordBinomials[n] }

// bigArith counts in big.Int, for supports past maxWordSupport.
type bigArith struct{}

// zeros returns a vector of n zero big.Ints backed by a single allocation.
func (bigArith) zeros(n int) []*big.Int {
	vals := make([]big.Int, n)
	out := make([]*big.Int, n)
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

func (bigArith) reset(v []*big.Int) {
	for _, x := range v {
		x.SetInt64(0)
	}
}

func (bigArith) add(dst, src []*big.Int) {
	for i, x := range src {
		if x.Sign() != 0 {
			dst[i].Add(dst[i], x)
		}
	}
}

func (bigArith) addConvolve(dst, a, b []*big.Int) {
	var t big.Int
	for i, ai := range a {
		if ai.Sign() == 0 {
			continue
		}
		for j, bj := range b {
			if bj.Sign() == 0 {
				continue
			}
			t.Mul(ai, bj)
			dst[i+j].Add(dst[i+j], &t)
		}
	}
}

func (bigArith) binomial(n int) []*big.Int { return binomialRow(n) }

// binomialCache memoizes big.Int binomial rows across calls: every ∨-gate
// with gap variables and every universe padding used to recompute its row
// from scratch. Rows are shared and must be treated as read-only by callers.
var binomialCache struct {
	sync.Mutex
	rows map[int][]*big.Int
}

// binomialRow returns [C(n,0), C(n,1), ..., C(n,n)]. The returned slice is
// shared across calls; callers must not modify it or its entries.
func binomialRow(n int) []*big.Int {
	binomialCache.Lock()
	defer binomialCache.Unlock()
	if row, ok := binomialCache.rows[n]; ok {
		return row
	}
	row := make([]*big.Int, n+1)
	row[0] = big.NewInt(1)
	for k := 1; k <= n; k++ {
		// C(n,k) = C(n,k-1) · (n-k+1) / k
		row[k] = new(big.Int).Mul(row[k-1], big.NewInt(int64(n-k+1)))
		row[k].Quo(row[k], big.NewInt(int64(k)))
	}
	if binomialCache.rows == nil {
		binomialCache.rows = make(map[int][]*big.Int)
	}
	binomialCache.rows[n] = row
	return row
}

// floatArith counts in float64, for FloatSATk only.
type floatArith struct{}

func (floatArith) zeros(n int) []float64 { return make([]float64, n) }

func (floatArith) reset(v []float64) { clear(v) }

func (floatArith) add(dst, src []float64) {
	for i, x := range src {
		dst[i] += x
	}
}

func (floatArith) addConvolve(dst, a, b []float64) {
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			dst[i+j] += ai * bj
		}
	}
}

func (floatArith) binomial(n int) []float64 {
	row := make([]float64, n+1)
	row[0] = 1
	for k := 1; k <= n; k++ {
		row[k] = row[k-1] * float64(n-k+1) / float64(k)
	}
	return row
}
