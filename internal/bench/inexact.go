package bench

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// Method names used in comparison records.
const (
	MethodMonteCarlo = "MonteCarlo"
	MethodKernelSHAP = "KernelSHAP"
	MethodProxy      = "CNFProxy"
)

// InexactRecord is one (output tuple × method × budget) measurement of the
// Section 6.2 comparison.
type InexactRecord struct {
	Dataset  string
	Query    string
	NumFacts int
	Method   string
	// BudgetPerFact is the sampling budget divided by the number of facts
	// (the paper's m = r·n parameterization); 0 for CNF Proxy, which does
	// not sample.
	BudgetPerFact int

	Seconds float64
	L1      float64
	L2      float64
	NDCG    float64
	P5      float64
	P10     float64
}

// CompareInexact runs Monte Carlo and Kernel SHAP at each per-fact budget,
// and CNF Proxy once, over every tuple with exact ground truth, recording
// execution time and the quality metrics of Section 6.2 against the exact
// Shapley values. Monte Carlo is Game.MonteCarloCI at a fixed spend: a
// budget of b·n marginal contributions is b permutations of the n facts,
// with CI refinement off and a seed drawn from the comparison's rng. A
// permutation of a monotone lineage costs one pass over the circuit, not
// n+1 evaluations, so the budget fixes Monte Carlo's estimates while its
// time reflects that one pass.
func CompareInexact(c *Corpus, budgetsPerFact []int, seed int64) []InexactRecord {
	rng := rand.New(rand.NewSource(seed))
	var out []InexactRecord
	for _, t := range c.SuccessfulTuples() {
		truth := restrictTruth(t)
		game := sampling.NewGame(t.ELin)

		for _, b := range budgetsPerFact {
			budget := b * game.NumPlayers()

			t0 := time.Now()
			ap, err := game.MonteCarloCI(context.Background(), rng.Int63(),
				sampling.Config{MinPermutations: max(b, 1), TargetCI: 1})
			mcTime := time.Since(t0)
			if err != nil {
				panic(err) // unreachable: only cancellation fails, and this context never ends
			}
			mc := make(map[db.FactID]float64, len(ap.Estimates))
			for f, e := range ap.Estimates {
				mc[f] = e.Value
			}
			out = append(out, record(t, MethodMonteCarlo, b, mcTime, mc, truth))

			t0 = time.Now()
			ks := sampling.KernelSHAP(game, budget, rng)
			ksTime := time.Since(t0)
			out = append(out, record(t, MethodKernelSHAP, b, ksTime, ks, truth))
		}

		t0 := time.Now()
		proxy := core.CNFProxy(t.CNF, t.Endo).Float()
		proxyTime := time.Since(t0)
		out = append(out, record(t, MethodProxy, 0, proxyTime, proxy, truth))
	}
	return out
}

// restrictTruth returns the exact values over the facts that occur in the
// tuple's provenance (the players of the comparison).
func restrictTruth(t *TupleResult) map[db.FactID]float64 {
	truth := make(map[db.FactID]float64, len(t.Endo))
	all := t.Values.Float()
	for _, f := range t.Endo {
		truth[f] = all[f]
	}
	return truth
}

func record(t *TupleResult, method string, budget int, d time.Duration,
	scores, truth map[db.FactID]float64) InexactRecord {

	// Methods may omit null players; fill zeros so the metrics see the full
	// universe.
	full := make(map[db.FactID]float64, len(truth))
	for f := range truth {
		full[f] = scores[f]
	}
	ranking := metrics.RankByScore(full)
	return InexactRecord{
		Dataset:       t.Dataset,
		Query:         t.Query,
		NumFacts:      t.NumFacts,
		Method:        method,
		BudgetPerFact: budget,
		Seconds:       d.Seconds(),
		L1:            metrics.L1(full, truth),
		L2:            metrics.L2(full, truth),
		NDCG:          metrics.NDCG(ranking, truth),
		P5:            metrics.PrecisionAt(ranking, truth, 5),
		P10:           metrics.PrecisionAt(ranking, truth, 10),
	}
}

// FilterRecords selects records matching method and budget (budget < 0
// matches any).
func FilterRecords(recs []InexactRecord, method string, budget int) []InexactRecord {
	var out []InexactRecord
	for _, r := range recs {
		if r.Method == method && (budget < 0 || r.BudgetPerFact == budget) {
			out = append(out, r)
		}
	}
	return out
}

// Column extractors used by the report renderers.
func seconds(rs []InexactRecord) []float64 {
	return extract(rs, func(r InexactRecord) float64 { return r.Seconds })
}
func l1s(rs []InexactRecord) []float64 {
	return extract(rs, func(r InexactRecord) float64 { return r.L1 })
}
func l2s(rs []InexactRecord) []float64 {
	return extract(rs, func(r InexactRecord) float64 { return r.L2 })
}
func ndcgs(rs []InexactRecord) []float64 {
	return extract(rs, func(r InexactRecord) float64 { return r.NDCG })
}
func p5s(rs []InexactRecord) []float64 {
	return extract(rs, func(r InexactRecord) float64 { return r.P5 })
}
func p10s(rs []InexactRecord) []float64 {
	return extract(rs, func(r InexactRecord) float64 { return r.P10 })
}

func extract(rs []InexactRecord, f func(InexactRecord) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}
