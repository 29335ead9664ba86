package repro

// One testing.B benchmark per table and figure of the paper's evaluation:
// each regenerates its artifact through internal/bench, whose Table1,
// Table2 and Figure4 … Figure8 render Tables 1–2 and Figures 4–8 as text.
// The ablation benches time one design choice against its alternative:
// BenchmarkAblationComponentCache the compiler's component cache on and
// off, and BenchmarkAblationExactVsFloatCounts exact against float64
// #SAT_k counts. Run
//
//	go test -bench=. -benchmem
//
// or use cmd/benchtables for a human-readable report of every artifact.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dnnf"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/imdb"
	"repro/internal/sampling"
	"repro/internal/tpch"
)

// benchCorpus is shared by the table/figure benchmarks: running the exact
// pipeline over the whole corpus is itself the measured operation in
// BenchmarkTable1, while the comparison benchmarks reuse its artifacts.
var (
	corpusOnce sync.Once
	corpusVal  *bench.Corpus
	corpusErr  error
)

func benchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.TPCH = tpch.Config{Customers: 15, OrdersPerCustomer: 2, LinesPerOrder: 3, Parts: 20, Suppliers: 8, Seed: 42}
	o.IMDB = imdb.Config{Movies: 30, People: 40, Companies: 10, Keywords: 15, CastPerMovie: 3, Seed: 7}
	o.Timeout = 2 * time.Second
	o.MaxTuplesPerQuery = 40
	return o
}

func benchCorpus(b *testing.B) *bench.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		corpusVal, corpusErr = bench.RunCorpus(context.Background(), benchOptions())
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpusVal
}

// BenchmarkTable1 regenerates Table 1: the exact pipeline (provenance →
// Tseytin → knowledge compilation → Lemma 4.6 → Algorithm 1) over every
// output tuple of the TPC-H and IMDB suites, with per-query statistics.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := bench.RunCorpus(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		_ = bench.Table1(c)
	}
}

// BenchmarkTable2 regenerates Table 2: Monte Carlo and Kernel SHAP at
// 50·#facts samples versus CNF Proxy, with quality metrics against the
// exact ground truth.
func BenchmarkTable2(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := bench.CompareInexact(c, []int{50}, 99)
		_ = bench.Table2(recs, 50)
	}
}

// BenchmarkFigure4 regenerates Figure 4: KC and Algorithm 1 time as a
// function of #facts, #CNF clauses, and d-DNNF size.
func BenchmarkFigure4(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bench.Figure4(c)
	}
}

// BenchmarkFigure5 regenerates Figure 5: Algorithm 1 running time on
// representative TPC-H query outputs as the lineitem table scales.
func BenchmarkFigure5(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		points, err := bench.RunScaling(context.Background(), opts, []float64{0.25, 0.5, 0.75, 1.0},
			[]string{"q3", "q10", "q9", "q19"}, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = bench.RenderScaling(points)
	}
}

// BenchmarkFigure6 regenerates Figure 6: inexact-method time and quality as
// a function of the sampling budget m ∈ {10n, ..., 50n}.
func BenchmarkFigure6(b *testing.B) {
	c := benchCorpus(b)
	budgets := []int{10, 20, 30, 40, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := bench.CompareInexact(c, budgets, 7)
		_ = bench.Figure6(recs, budgets)
	}
}

// BenchmarkFigure7 regenerates Figure 7: the distribution and worst case of
// time/nDCG/P@10 per provenance-size bucket at budget 20n.
func BenchmarkFigure7(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := bench.CompareInexact(c, []int{20}, 11)
		_ = bench.Figure7(recs, 20)
	}
}

// BenchmarkFigure8 regenerates Figure 8: hybrid success rate and mean
// execution time as a function of the timeout.
func BenchmarkFigure8(b *testing.B) {
	c := benchCorpus(b)
	timeouts := []time.Duration{
		100 * time.Millisecond, 500 * time.Millisecond, time.Second,
		2500 * time.Millisecond, 5 * time.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := bench.Figure8(c, timeouts)
		_ = bench.RenderFigure8(points)
	}
}

// --- micro-benchmarks of the core algorithms ---

func flightsLineage(b *testing.B) (*circuit.Node, []FactID) {
	b.Helper()
	d, _ := flights.Build()
	cb := circuit.NewBuilder()
	elin, err := engine.EvalBoolean(d, flights.Query(), cb, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	endo := make([]FactID, 0, 8)
	for _, f := range d.EndogenousFacts() {
		endo = append(endo, f.ID)
	}
	return elin, endo
}

// BenchmarkAlgorithm1 measures the full exact pipeline on the paper's
// running example.
func BenchmarkAlgorithm1(b *testing.B) {
	elin, endo := flightsLineage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExplainCircuit(context.Background(), elin, endo, core.PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCNFProxy measures Algorithm 2 on the running example's Tseytin
// CNF.
func BenchmarkCNFProxy(b *testing.B) {
	elin, endo := flightsLineage(b)
	formula := cnf.TseytinReserving(elin, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.CNFProxy(formula, endo)
	}
}

// BenchmarkMonteCarlo and BenchmarkKernelSHAP measure the sampling
// baselines at budget 50·n on the running example (50 permutations for
// Monte Carlo, as in the Section 6.2 comparison).
func BenchmarkMonteCarlo(b *testing.B) {
	elin, _ := flightsLineage(b)
	g := sampling.NewGame(elin)
	cfg := sampling.Config{MinPermutations: 50, TargetCI: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MonteCarloCI(context.Background(), int64(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSHAP(b *testing.B) {
	elin, _ := flightsLineage(b)
	g := sampling.NewGame(elin)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sampling.KernelSHAP(g, 50*g.NumPlayers(), rng)
	}
}

// --- ablation benches: one design choice against its alternative ---

// hardCNF returns a CNF that takes the compiler some real work: the Tseytin
// transformation of a wide IMDB lineage.
func hardCNF(b *testing.B) *cnf.Formula {
	b.Helper()
	c := benchCorpus(b)
	var best *bench.TupleResult
	for _, t := range c.SuccessfulTuples() {
		if best == nil || t.NumFacts > best.NumFacts {
			best = t
		}
	}
	if best == nil {
		b.Skip("no successful tuples in corpus")
	}
	return best.CNF
}

// BenchmarkAblationComponentCache quantifies the compiler's component cache.
func BenchmarkAblationComponentCache(b *testing.B) {
	f := hardCNF(b)
	b.Run("cache=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{DisableCache: true, Timeout: 10 * time.Second}); err != nil {
				if err == dnnf.ErrTimeout {
					b.Skip("cache-off compilation exceeds 10s on this instance — the ablation's point")
				}
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationExactVsFloatCounts compares the exact #SAT_k dynamic
// program (machine words up to 64 facts, big.Int above) against its float64
// instance (which loses exactness on large circuits and is therefore not
// used by Algorithm 1).
func BenchmarkAblationExactVsFloatCounts(b *testing.B) {
	f := hardCNF(b)
	compiled, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reduced := dnnf.EliminateAux(compiled, func(v int) bool { return f.Aux[v] })
	b.Run("counts=exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.ComputeAllSATk(reduced)
		}
	})
	b.Run("counts=float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FloatSATk(reduced)
		}
	})
}

// --- parallel pipeline benchmarks ---

// parallelWorkload compiles the largest successful corpus tuple (a TPC-H or
// IMDB lineage) down to its reduced d-DNNF, the input of Algorithm 1.
func parallelWorkload(b *testing.B) (*dnnf.Node, []FactID) {
	b.Helper()
	c := benchCorpus(b)
	var best *bench.TupleResult
	for _, t := range c.SuccessfulTuples() {
		if best == nil || t.NumFacts > best.NumFacts {
			best = t
		}
	}
	if best == nil {
		b.Skip("no successful tuples in corpus")
	}
	res, err := core.ExplainCircuit(context.Background(), best.ELin, best.Endo, core.PipelineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res.DNNF, best.Endo
}

// BenchmarkShapleyAllParallel measures Algorithm 1's per-fact fan-out on the
// heaviest TPC-H/IMDB lineage of the corpus: workers=1 is the serial
// baseline, workers=GOMAXPROCS the saturated configuration. The strategy is
// pinned to per-fact so the benchmark isolates the fan-out (the gradient
// strategy is measured by BenchmarkShapleyAllGradient). The setup phase
// asserts the parallel Values are big.Rat-identical to the serial ones, so
// the speedup is measured on provably equivalent computations.
func BenchmarkShapleyAllParallel(b *testing.B) {
	circ, endo := parallelWorkload(b)
	serial, err := core.ShapleyAllStrategy(context.Background(), circ, endo, 1, core.StrategyPerFact)
	if err != nil {
		b.Fatal(err)
	}
	configs := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool)
	for _, workers := range configs {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		v, err := core.ShapleyAllStrategy(context.Background(), circ, endo, workers, core.StrategyPerFact)
		if err != nil {
			b.Fatal(err)
		}
		for f, sv := range serial {
			if pv := v[f]; pv == nil || pv.Cmp(sv) != 0 {
				b.Fatalf("workers=%d fact %d: %v != serial %v", workers, f, pv, sv)
			}
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ShapleyAllStrategy(context.Background(), circ, endo, workers, core.StrategyPerFact); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// thresholdDNNF builds the "at least t of n" voting function as a d-DNNF
// decision DAG (O(n·t) nodes, all n variables in the support) — a
// flights-scale circuit family whose fact count n can be dialed up freely.
func thresholdDNNF(b *dnnf.Builder, n, t int) *dnnf.Node {
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

// BenchmarkShapleyAllGradient is the head-to-head for the two-pass gradient
// rewrite: per-fact conditioning (2n conditionings, O(n·|C|·n²)) versus the
// gradient strategy (two circuit passes, O(|C|·n²)) on threshold circuits
// with n ≥ 20 facts. Both run serially (workers=1) so the ratio isolates
// the algorithmic difference, and the setup phase asserts the two
// strategies produce big.Rat-identical values. The gradient advantage grows
// linearly with n.
func BenchmarkShapleyAllGradient(b *testing.B) {
	for _, n := range []int{20, 28} {
		bu := dnnf.NewBuilder()
		circ := thresholdDNNF(bu, n, n/2)
		endo := make([]FactID, n)
		for i := range endo {
			endo[i] = FactID(i + 1)
		}
		perFact, err := core.ShapleyAllStrategy(context.Background(), circ, endo, 1, core.StrategyPerFact)
		if err != nil {
			b.Fatal(err)
		}
		gradient, err := core.ShapleyAllStrategy(context.Background(), circ, endo, 1, core.StrategyGradient)
		if err != nil {
			b.Fatal(err)
		}
		for f, pv := range perFact {
			if gv := gradient[f]; gv == nil || gv.Cmp(pv) != 0 {
				b.Fatalf("n=%d fact %d: gradient %v != per-fact %v", n, f, gradient[f], pv)
			}
		}
		for _, cfg := range []struct {
			name     string
			strategy core.ShapleyStrategy
		}{
			{"per-fact", core.StrategyPerFact},
			{"gradient", core.StrategyGradient},
		} {
			b.Run(fmt.Sprintf("n=%d/strategy=%s", n, cfg.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ShapleyAllStrategy(context.Background(), circ, endo, 1, cfg.strategy); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExplainParallel measures the end-to-end facade — per-answer
// fan-out plus per-fact fan-out — on the TPC-H q3 output at the default
// scale, serial versus saturated.
func BenchmarkExplainParallel(b *testing.B) {
	d := tpch.Generate(benchOptions().TPCH)
	var q *Query
	for _, bq := range tpch.Queries() {
		if bq.Name == "q3" {
			q = bq.Q
		}
	}
	if q == nil {
		b.Fatal("tpch q3 missing")
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := Options{Timeout: 2 * time.Second, Workers: workers, CacheSize: -1}
				if _, err := Explain(context.Background(), d, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheHitRecompute times the catch-up of sessions in the shape of
// serve-mixed: one Session each on TPC-H q3, q10, q11 and q18 at scale 4
// (200 tuples), with a 2.5 s timeout and the default cache. Each round
// inserts and deletes a copy of a lineitem directly on the database and
// then explains every session, which replays the two writes from the
// database's mutation feed and recomputes, from value-cache hits, only the
// tuples whose lineage the copy joined.
func BenchmarkCacheHitRecompute(b *testing.B) {
	ctx := context.Background()
	d := tpch.Generate(tpch.DefaultConfig().Scaled(4))
	var sessions []*Session
	for _, bq := range tpch.Queries() {
		switch bq.Name {
		case "q3", "q10", "q11", "q18":
			s, err := Open(d, bq.Q, Options{Timeout: 2500 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			sessions = append(sessions, s)
		}
	}
	explainAll := func() {
		for _, s := range sessions {
			if _, err := s.Explain(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	explainAll() // fills the cache
	li := d.Relation("lineitem")
	orig := li.Facts()[0]
	dup := append([]Value(nil), orig.Tuple...)
	dup[li.Schema.ColumnIndex("linenumber")] = Int(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := d.Insert("lineitem", orig.Endogenous, dup...)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Delete(f.ID); err != nil {
			b.Fatal(err)
		}
		explainAll()
	}
}
