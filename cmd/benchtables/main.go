// Command benchtables regenerates every table and figure of the paper's
// evaluation section over the synthetic TPC-H and IMDB workloads and prints
// them as text. The mapping from artifact to code is documented in
// DESIGN.md; EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	benchtables                       # everything, default scale
//	benchtables -only table1,fig8    # a subset
//	benchtables -scale 2 -timeout 5s # bigger instance, larger budget
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/updatebench"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated subset: table1,table2,fig4,fig5,fig6,fig7,fig8")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		timeout = flag.Duration("timeout", 2500*time.Millisecond, "exact-computation budget per output tuple")
		maxTup  = flag.Int("maxtuples", 200, "max output tuples per query (0 = unbounded)")
		workers = flag.Int("workers", 0, "per-tuple fan-out of Algorithm 1's per-fact strategy (0 = GOMAXPROCS, 1 = serial)")
		cworker = flag.Int("compile-workers", 0, "knowledge-compiler component fan-out per tuple (0 = GOMAXPROCS, 1 = sequential)")
		cacheSz = flag.Int("cache", 0, "compiled-circuit cache capacity per suite (0 = disabled)")
		nocanon = flag.Bool("nocanon", false, "key the compile cache byte-identically instead of canonically")
		strat   = flag.String("strategy", "auto", "Algorithm 1 evaluation mode: auto, per-fact, or gradient")
		benchJS = flag.String("benchjson", "", "write a BENCH_shapley.json perf report (per-tuple timings, per-fact vs gradient head-to-head, worker scaling) to this path")
		compJS  = flag.String("compilejson", "", "write a BENCH_compile.json perf report (serial vs parallel compile head-to-head, canonical vs byte-identical cache hit rates) to this path")
		updJS   = flag.String("updatejson", "", "write a BENCH_update.json perf report (incremental session maintenance vs recompute-from-scratch across update batch sizes) to this path")
	)
	flag.Parse()

	strategy, err := core.ParseShapleyStrategy(*strat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	want := map[string]bool{}
	if *only == "" {
		for _, k := range []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8"} {
			want[k] = true
		}
	} else {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}

	opts := bench.DefaultOptions()
	opts.TPCH = opts.TPCH.Scaled(*scale)
	opts.IMDB = opts.IMDB.Scaled(*scale)
	opts.Timeout = *timeout
	opts.MaxTuplesPerQuery = *maxTup
	opts.Workers = *workers
	opts.CompileWorkers = *cworker
	opts.CacheSize = *cacheSz
	opts.NoCanonicalCache = *nocanon
	opts.Strategy = strategy
	// The head-to-head report reruns both strategies on the heaviest
	// reduced circuits, so only retain them when the report is requested.
	opts.KeepDNNF = *benchJS != ""

	fmt.Printf("== Corpus: TPC-H + IMDB (scale %.2f, timeout %v) ==\n", *scale, *timeout)
	start := time.Now()
	corpus, err := bench.RunCorpus(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	total, success := 0, 0
	for _, t := range corpus.Tuples() {
		total++
		if t.Success {
			success++
		}
	}
	fmt.Printf("corpus built in %v: %d output tuples, %d exact successes (%.2f%%)\n\n",
		time.Since(start).Round(time.Millisecond), total, success, 100*float64(success)/float64(max(total, 1)))

	if *cacheSz > 0 {
		section("Per-query compile-cache hit rates (canonical keying)")
		for _, r := range corpus.Runs {
			st := r.CacheStats
			if st.Hits+st.Misses == 0 {
				continue
			}
			fmt.Printf("%s/%s: %d identical + %d renamed hits, %d misses (hit rate %.2f, %d evictions)\n",
				r.Dataset, r.Name, st.IdenticalHits, st.RenamedHits, st.Misses, st.HitRate(), st.Evictions)
		}
		fmt.Println()
	}

	if *updJS != "" {
		rep, err := updatebench.RunUpdateBench(ctx, opts, []int{1, 2, 4, 8}, nil, 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		if err := updatebench.WriteUpdateBench(*updJS, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		for _, p := range rep.Points {
			fmt.Printf("update %s/%s batch=%d (%d/%d tuples touched): incremental %.2fms, recompute %.2fms (%.1fx)\n",
				p.Dataset, p.Query, p.BatchSize, p.ChangedTuples, p.Tuples,
				p.IncrementalMillis, p.RecomputeMillis, p.Speedup)
		}
		fmt.Printf("wrote %s\n\n", *updJS)
	}

	if *benchJS != "" {
		rep, err := bench.ShapleyBenchReport(ctx, corpus, strategy, 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		if err := bench.WriteShapleyBench(*benchJS, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		for _, h := range rep.HeadToHead {
			fmt.Printf("shapley head-to-head %s/%s (n=%d, |C|=%d): per-fact %.2fms, gradient %.2fms (%.1fx)\n",
				h.Dataset, h.Query, h.NumFacts, h.DNNFSize, h.PerFactMillis, h.GradientMillis, h.Speedup)
		}
		for _, p := range rep.WorkerScaling {
			fmt.Printf("shapley worker scaling: workers=%d %.2fms (%.2fx)\n", p.Workers, p.Millis, p.Speedup)
		}
		fmt.Printf("wrote %s\n\n", *benchJS)
	}

	if *compJS != "" {
		rep, err := bench.CompileBenchReport(ctx, corpus, []int{1, 2, 4}, 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		if err := bench.WriteCompileBench(*compJS, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		for _, inst := range rep.Instances {
			fmt.Printf("compile head-to-head %s (%d clauses, %d components): serial %.2fms, best parallel %.2fx\n",
				inst.Name, inst.NumClauses, inst.Components, inst.SerialMillis, inst.BestSpeedup)
		}
		for _, p := range rep.Canonical {
			fmt.Printf("canonical cache %s: %d identical + %d renamed hits, %d misses (hit rate %.2f)\n",
				p.Name, p.IdenticalHits, p.RenamedHits, p.Misses, p.HitRate)
		}
		fmt.Printf("wrote %s\n\n", *compJS)
	}

	if want["table1"] {
		section("Table 1 — exact computation per query")
		fmt.Println(bench.Table1(corpus))
	}

	var recs []bench.InexactRecord
	budgets := []int{10, 20, 30, 40, 50}
	if want["table2"] || want["fig6"] || want["fig7"] {
		recs = bench.CompareInexact(corpus, budgets, 99)
	}
	if want["table2"] {
		section("Table 2 — inexact methods at 50·#facts samples (median (mean))")
		fmt.Println(bench.Table2(recs, 50))
	}
	if want["fig4"] {
		section("Figure 4 — KC / Algorithm 1 time vs provenance features")
		fmt.Println(bench.Figure4(corpus))
	}
	if want["fig5"] {
		section("Figure 5 — Algorithm 1 time vs lineitem scale")
		points, err := bench.RunScaling(ctx, opts.TPCH, []float64{0.25, 0.5, 0.75, 1.0},
			[]string{"q3", "q10", "q9", "q19"}, 2,
			core.PipelineOptions{CompileTimeout: *timeout, ShapleyTimeout: *timeout,
				Workers: *workers, CompileWorkers: *cworker, Strategy: strategy})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(bench.RenderScaling(points))
	}
	if want["fig6"] {
		section("Figure 6 — inexact methods vs sampling budget")
		fmt.Println(bench.Figure6(recs, budgets))
	}
	if want["fig7"] {
		section("Figure 7 — inexact methods vs #provenance facts (budget 20·n)")
		fmt.Println(bench.Figure7(recs, 20))
	}
	if want["fig8"] {
		section("Figure 8 — hybrid success rate and mean time vs timeout")
		timeouts := []time.Duration{
			100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
			time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
		}
		fmt.Println(bench.RenderFigure8(bench.Figure8(corpus, timeouts)))
	}
}

func section(title string) {
	fmt.Println("== " + title + " ==")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
