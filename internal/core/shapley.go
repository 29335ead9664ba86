package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/parallel"
)

// Values maps endogenous fact IDs to their exact Shapley values.
type Values map[db.FactID]*big.Rat

// Float returns the values as float64s (for metrics and display).
func (v Values) Float() map[db.FactID]float64 {
	out := make(map[db.FactID]float64, len(v))
	for id, r := range v {
		f, _ := r.Float64()
		out[id] = f
	}
	return out
}

// Sum returns Σ_f v[f]; by the efficiency axiom it equals
// q(Dn ∪ Dx) − q(Dx) for a Boolean query game. Accumulation runs in
// ascending fact-ID order, not Go's randomized map order, so repeated runs
// perform the identical sequence of exact additions.
func (v Values) Sum() *big.Rat {
	ids := make([]db.FactID, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := new(big.Rat)
	for _, id := range ids {
		s.Add(s, v[id])
	}
	return s
}

// Ranking returns the fact IDs sorted by decreasing value, ties broken by
// increasing fact ID for determinism.
func (v Values) Ranking() []db.FactID {
	ids := make([]db.FactID, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		c := v[ids[i]].Cmp(v[ids[j]])
		if c != 0 {
			return c > 0
		}
		return ids[i] < ids[j]
	})
	return ids
}

// ShapleyStrategy selects how ShapleyAll computes the per-fact conditioned
// count vectors of Algorithm 1.
type ShapleyStrategy uint8

const (
	// StrategyAuto (the default) is StrategyGradient, which is faster than
	// StrategyPerFact at every circuit size.
	StrategyAuto ShapleyStrategy = iota
	// StrategyPerFact is the literal Algorithm 1: condition the circuit on
	// f→true and f→false for each fact f and rerun the #SAT_k dynamic
	// program, at O(n·|C|·n²) total cost. Kept as an ablation and
	// cross-check for the gradient path.
	StrategyPerFact
	// StrategyGradient obtains every fact's conditioned count difference
	// from one bottom-up #SAT_k pass plus one top-down derivative pass over
	// the circuit — O(|C|·n²) total, an asymptotic factor-n speedup.
	StrategyGradient
)

func (s ShapleyStrategy) String() string {
	switch s {
	case StrategyPerFact:
		return "per-fact"
	case StrategyGradient:
		return "gradient"
	default:
		return "auto"
	}
}

// ParseShapleyStrategy parses a CLI-facing strategy name.
func ParseShapleyStrategy(s string) (ShapleyStrategy, error) {
	switch s {
	case "", "auto":
		return StrategyAuto, nil
	case "per-fact", "perfact":
		return StrategyPerFact, nil
	case "gradient":
		return StrategyGradient, nil
	}
	return StrategyAuto, fmt.Errorf("core: unknown Shapley strategy %q (want auto, per-fact, or gradient)", s)
}

// resolveStrategy turns StrategyAuto into the concrete strategy it runs.
func resolveStrategy(s ShapleyStrategy) ShapleyStrategy {
	if s == StrategyAuto {
		return StrategyGradient
	}
	return s
}

// shapleyCoefCache memoizes ShapleyCoefficients across calls and goroutines:
// a hybrid answer can evaluate the coefficients for the same n several times
// (strategy attempts, cross-checks, per-fact helpers); the cached rows are
// shared read-only.
var shapleyCoefCache struct {
	sync.Mutex
	rows map[int][]*big.Rat
}

// shapleyCoefficients returns the memoized coefficient row for n. The slice
// and its entries are shared across callers and must be treated as
// read-only.
func shapleyCoefficients(n int) []*big.Rat {
	shapleyCoefCache.Lock()
	defer shapleyCoefCache.Unlock()
	if row, ok := shapleyCoefCache.rows[n]; ok {
		return row
	}
	row := make([]*big.Rat, n)
	nFact := new(big.Int).MulRange(1, int64(n)) // n!
	for k := 0; k < n; k++ {
		kFact := new(big.Int).MulRange(1, int64(k))
		rFact := new(big.Int).MulRange(1, int64(n-k-1))
		num := new(big.Int).Mul(kFact, rFact)
		row[k] = new(big.Rat).SetFrac(num, nFact)
	}
	if shapleyCoefCache.rows == nil {
		shapleyCoefCache.rows = make(map[int][]*big.Rat)
	}
	shapleyCoefCache.rows[n] = row
	return row
}

// ShapleyCoefficients returns the n coefficients k!·(n−k−1)!/n! for
// k = 0..n−1 appearing in Equation (2)/(3) of the paper. The returned
// rationals are fresh copies the caller may mutate.
func ShapleyCoefficients(n int) []*big.Rat {
	src := shapleyCoefficients(n)
	out := make([]*big.Rat, len(src))
	for i, r := range src {
		out[i] = new(big.Rat).Set(r)
	}
	return out
}

// ShapleyOfFact implements Algorithm 1 for a single endogenous fact f: given
// a d-DNNF circuit representing ELin(q, Dx, Dn) whose variables are a subset
// of the endogenous fact IDs endo, it computes Shapley(q, Dn, Dx, f)
// exactly. Facts absent from the circuit's support have Shapley value 0
// (conditioning changes nothing), which realizes the circuit-completion step
// without building (f' ∨ ¬f') gates.
func ShapleyOfFact(c *dnnf.Node, endo []db.FactID, f db.FactID) *big.Rat {
	n := len(endo)
	if n == 0 {
		return new(big.Rat)
	}
	inSupport := false
	for _, v := range c.Vars() {
		if db.FactID(v) == f {
			inSupport = true
			break
		}
	}
	if !inSupport {
		return new(big.Rat)
	}
	coefs := shapleyCoefficients(n)
	b := dnnf.NewBuilder()
	gamma := conditionedCounts(b, c, int(f), true, n-1)
	delta := conditionedCounts(b, c, int(f), false, n-1)
	return weightedDifference(gamma, delta, coefs)
}

// ShapleyAll computes the Shapley value of every endogenous fact in endo
// with respect to the Boolean function represented by the d-DNNF c (the
// endogenous lineage) under StrategyAuto. Facts outside the support are
// zero by symmetry (they are null players). Cancellation of ctx is checked
// between units of work; on cancellation the context's error is returned.
func ShapleyAll(ctx context.Context, c *dnnf.Node, endo []db.FactID, workers int) (Values, error) {
	return ShapleyAllStrategy(ctx, c, endo, workers, StrategyAuto)
}

// ShapleyAllStrategy is ShapleyAll with an explicit evaluation strategy. The
// two strategies compute big.Rat-identical values at very different costs:
// per-fact is O(n·|C|·n²), gradient is O(|C|·n²) for all facts together.
// The per-fact path fans out across `workers` goroutines (≤ 0 means
// GOMAXPROCS, 1 forces the serial path); the gradient's two circuit passes
// are serial, so it ignores workers.
func ShapleyAllStrategy(ctx context.Context, c *dnnf.Node, endo []db.FactID, workers int, strategy ShapleyStrategy) (Values, error) {
	n := len(endo)
	if n == 0 {
		return make(Values), nil
	}
	if resolveStrategy(strategy) == StrategyGradient {
		return shapleyAllGradient(ctx, c, endo)
	}
	return shapleyAllPerFact(ctx, c, endo, workers, shapleyCoefficients(n))
}

// shapleyAllPerFact is the literal Algorithm 1: each fact conditions the
// circuit on its own presence/absence and reruns the #SAT_k dynamic program.
// The per-fact computations are independent, so they fan out across workers;
// every fact gets a private dnnf.Builder so the dense #SAT_k memo stays
// proportional to the conditioned circuit. Exact big.Rat arithmetic makes
// the parallel result identical to the serial one.
func shapleyAllPerFact(ctx context.Context, c *dnnf.Node, endo []db.FactID, workers int, coefs []*big.Rat) (Values, error) {
	n := len(endo)
	out := make(Values, n)
	support := make(map[db.FactID]bool, c.NumVars())
	for _, v := range c.Vars() {
		support[db.FactID(v)] = true
	}
	vals := make([]*big.Rat, n)
	err := parallel.ForEach(ctx, n, workers, func(_, i int) error {
		f := endo[i]
		if !support[f] {
			vals[i] = new(big.Rat)
			return nil
		}
		b := dnnf.NewBuilder()
		gamma := conditionedCounts(b, c, int(f), true, n-1)
		delta := conditionedCounts(b, c, int(f), false, n-1)
		vals[i] = weightedDifference(gamma, delta, coefs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, f := range endo {
		out[f] = vals[i]
	}
	return out, nil
}

// conditionedCounts computes the #SAT_k vector of C[f→val], padded to a
// universe of size universe (= |Dn|−1, the endogenous facts minus f).
func conditionedCounts(b *dnnf.Builder, c *dnnf.Node, f int, val bool, universe int) []*big.Int {
	cond := dnnf.Condition(b, c, map[int]bool{f: val})
	counts := ComputeAllSATk(cond)
	return PadToUniverse(counts, universe-cond.NumVars())
}

// weightedDifference evaluates Σ_k coefs[k]·(Γ[k]−Δ[k]) as an exact
// rational.
func weightedDifference(gamma, delta []*big.Int, coefs []*big.Rat) *big.Rat {
	total := new(big.Rat)
	var diff big.Int
	var term big.Rat
	for k := 0; k < len(coefs); k++ {
		g := bigAt(gamma, k)
		d := bigAt(delta, k)
		diff.Sub(g, d)
		if diff.Sign() == 0 {
			continue
		}
		term.SetInt(&diff)
		term.Mul(&term, coefs[k])
		total.Add(total, &term)
	}
	return total
}

func bigAt(v []*big.Int, k int) *big.Int {
	if k < len(v) {
		return v[k]
	}
	return new(big.Int)
}
