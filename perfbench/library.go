package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/engine"
	"repro/internal/imdb"
	"repro/internal/parallel"
	"repro/internal/tpch"
)

// degradeNodes is explain-degraded's node budget: at 500 nodes, 2 of the 6
// tuples of 11d, all 6 of 15d and 6 of the 12 of 16a exceed it, on both
// fallback paths and identically on every repeat.
const degradeNodes = 500

// Layers timed by the library replay; each is reported as <layer>_ms.
const (
	layerGround  = "engine.ground"
	layerTseytin = "cnf.tseytin"
	layerCompile = "dnnf.compile"
	layerAborted = "dnnf.aborted_compile"
	layerShapley = "core.shapley"
	layerProxy   = "core.proxy"
	layerApprox  = "sampling.approx"
)

var libraryLayers = []string{layerGround, layerTseytin, layerCompile, layerAborted, layerShapley, layerProxy, layerApprox}

// libOp is one kind of library call: a query over a dataset under one option
// set.
type libOp struct {
	name string
	d    *repro.Database
	q    *repro.Query
	opts repro.Options
}

// libraryOps generates the workload's datasets and lists its calls. The
// datasets use the generators' default seeds whatever the run's seed: a
// generator seed changes explain-exact's mix tenfold (see WORKLOADS.md), so
// the run's seed orders the calls instead.
func libraryOps(workload string) []libOp {
	var ops []libOp
	im := imdb.Generate(imdb.DefaultConfig().Scaled(0.5))
	if workload == "explain-degraded" {
		// The §6.3 hybrid falls back to CNF Proxy past Options.MaxNodes;
		// the anytime tier falls back to Monte Carlo past Budget.MaxNodes.
		hybrid := repro.Options{CacheSize: -1, MaxNodes: degradeNodes}
		anytime := repro.Options{CacheSize: -1, Budget: repro.ExplainBudget{MaxNodes: degradeNodes}}
		for _, bq := range imdb.Queries() {
			if bq.Name == "11d" || bq.Name == "15d" || bq.Name == "16a" {
				ops = append(ops,
					libOp{"imdb/" + bq.Name + "/hybrid", im, bq.Q, hybrid},
					libOp{"imdb/" + bq.Name + "/anytime", im, bq.Q, anytime})
			}
		}
		return ops
	}
	// The paper's cache-free setting: every pass does the same work.
	exact := repro.Options{CacheSize: -1}
	tp := tpch.Generate(tpch.DefaultConfig().Scaled(1))
	for _, bq := range tpch.Queries() {
		ops = append(ops, libOp{"tpch/" + bq.Name, tp, bq.Q, exact})
	}
	for _, bq := range imdb.Queries() {
		if bq.Name != "15d" && bq.Name != "16a" {
			ops = append(ops, libOp{"imdb/" + bq.Name, im, bq.Q, exact})
		}
	}
	return ops
}

// libSetup is one set-up of a library workload: its calls and the reference
// answer of each.
type libSetup struct {
	ops []libOp
	ref [][]repro.TupleExplanation
}

// setUpLibrary generates the datasets, computes each call's reference with a
// serial repro.Explain and makes one checked warm-up pass.
func setUpLibrary(ctx context.Context, workload string) (*libSetup, error) {
	su := &libSetup{ops: libraryOps(workload)}
	for _, op := range su.ops {
		serial := op.opts
		serial.Workers = 1
		es, err := repro.Explain(ctx, op.d, op.q, serial)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", op.name, err)
		}
		su.ref = append(su.ref, es)
	}
	for i, op := range su.ops {
		es, err := repro.Explain(ctx, op.d, op.q, op.opts)
		if err == nil {
			err = sameExplanations(su.ref[i], es)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op.name, err)
		}
	}
	return su, nil
}

// libRun is the untraced window of a library workload: which call was made
// at each step, in whole passes over the calls, and how long it took.
type libRun struct {
	seq []int
	lat []time.Duration
}

// runLibrary runs explain-exact or explain-degraded: one caller loops
// repro.Explain over the workload's calls, each pass in an order drawn from
// the seed.
func runLibrary(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var su *libSetup
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		prev := su
		runtime.GC()
		start := time.Now()
		next, err := setUpLibrary(ctx, cfg.workload)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if prev != nil {
			for k, op := range prev.ops {
				if err := sameExplanations(prev.ref[k], next.ref[k]); err != nil {
					out.problem("set-ups disagree on the reference for %s: %v", op.name, err)
				}
			}
		}
		su = next
	}
	out.metrics["setup_s"] = median(setupTimes)

	run := measureLibrary(ctx, cfg, su, out)
	if cfg.trace {
		replayLibrary(ctx, cfg, su, run, out)
	}
	return out, nil
}

// measureLibrary runs the untraced window in whole passes and sets the
// end-to-end metrics. ops_per_s counts the time inside repro.Explain only,
// not the checks between calls.
func measureLibrary(ctx context.Context, cfg config, su *libSetup, out *outcome) *libRun {
	rng := rand.New(rand.NewSource(cfg.seed))
	run := &libRun{}
	tuples, exact := 0, 0
	var busy time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(run.seq) == 0 || time.Since(start) < cfg.window || len(run.seq) < cfg.minOps {
		for _, k := range rng.Perm(len(su.ops)) {
			op := su.ops[k]
			t := time.Now()
			es, err := repro.Explain(ctx, op.d, op.q, op.opts)
			lat := time.Since(t)
			busy += lat
			out.attempted++
			if err == nil {
				err = sameExplanations(su.ref[k], es)
			}
			if err != nil {
				out.opFailed(fmt.Errorf("%s: %w", op.name, err))
			}
			run.seq = append(run.seq, k)
			run.lat = append(run.lat, lat)
			tuples += len(es)
			for i := range es {
				if es[i].Method == repro.MethodExact {
					exact++
				}
			}
		}
	}
	runtime.ReadMemStats(&m1)

	lat := make([]float64, len(run.lat))
	for i, d := range run.lat {
		lat[i] = ms(d)
	}
	out.percentiles("explain", lat)
	out.metrics["ops_per_s"] = float64(len(run.seq)) / busy.Seconds()
	out.metrics["exact_ratio"] = float64(exact) / float64(max(tuples, 1))
	rss, err := peakRSSMB("self")
	if err != nil {
		out.problem("peak RSS: %v", err)
	}
	out.metrics["rss_peak_mb"] = rss
	out.metrics["go.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(run.seq))
	return run
}

// libCounts are the work counts of replayed calls; they repeat exactly.
type libCounts struct {
	answers, clauses, nodes, decisions, trips, permutations int
}

func (c *libCounts) add(o libCounts) {
	c.answers += o.answers
	c.clauses += o.clauses
	c.nodes += o.nodes
	c.decisions += o.decisions
	c.trips += o.trips
	c.permutations += o.permutations
}

// replayLibrary replays whole passes of the untraced run, for about as long
// as the untraced window, and sets the per-layer metrics. Each replayed call
// must answer exactly as the reference, which every untraced call matched,
// and its layer times plus other must add up to its wall time.
func replayLibrary(ctx context.Context, cfg config, su *libSetup, run *libRun, out *outcome) {
	n := len(su.ops)
	totals := make(map[string]float64)
	var counts libCounts
	var other, wall, untraced float64
	calls := 0
	start := time.Now()
	for p := 0; (p+1)*n <= len(run.seq); p++ {
		if p > 0 && time.Since(start) >= cfg.window {
			break
		}
		for i := p * n; i < (p+1)*n; i++ {
			op := su.ops[run.seq[i]]
			tr, es, c, err := replayCall(ctx, op)
			out.attempted++
			if err == nil {
				err = sameExplanations(su.ref[run.seq[i]], es)
			}
			if err != nil {
				out.opFailed(fmt.Errorf("replay of %s: %w", op.name, err))
				continue
			}
			shares, rest := tr.attribute()
			if rest < -1e-6 {
				out.problem("replay of %s: layer times exceed the wall time by %.6f ms", op.name, -rest)
			}
			for layer, v := range shares {
				totals[layer] += v
			}
			counts.add(c)
			other += rest
			wall += ms(tr.wall)
			untraced += ms(run.lat[i])
			calls++
		}
	}
	if calls == 0 {
		out.problem("no call was replayed")
		return
	}
	per := func(x float64) float64 { return x / float64(calls) }
	for _, layer := range libraryLayers {
		out.metrics[layer+"_ms"] = per(totals[layer])
	}
	out.metrics["repro.other_ms"] = per(other)
	out.metrics["engine.answers"] = per(float64(counts.answers))
	out.metrics["cnf.clauses"] = per(float64(counts.clauses))
	out.metrics["dnnf.nodes"] = per(float64(counts.nodes))
	out.metrics["dnnf.decisions"] = per(float64(counts.decisions))
	out.metrics["dnnf.budget_trips"] = per(float64(counts.trips))
	out.metrics["sampling.permutations"] = per(float64(counts.permutations))
	out.metrics["bench.replay_op_ms"] = per(wall)
	out.metrics["bench.trace_overhead_ms"] = per(wall - untraced)
}

// replayCall does what repro.Explain does for one call, with the same
// options and worker split, through the layers' public functions: ground,
// then for each tuple Tseytin and compile, followed by Algorithm 1, CNF Proxy
// or Monte Carlo as the outcome requires. It times every layer call.
func replayCall(ctx context.Context, op libOp) (*opTrace, []repro.TupleExplanation, libCounts, error) {
	tr := newOpTrace()
	var c libCounts
	var live []engine.LiveAnswer
	s := tr.now()
	inc, err := engine.NewIncremental(ctx, op.d, op.q, circuit.NewBuilder(), engine.Options{Mode: engine.ModeEndogenous})
	if err == nil {
		live = inc.Live()
	}
	tr.add(layerGround, s)
	if err != nil {
		return nil, nil, c, err
	}
	c.answers = len(live)

	// The worker split of repro.Session.ExplainWithBudget.
	workers := parallel.Workers(op.opts.Workers)
	outer := max(min(workers, len(live)), 1)
	inner := max(workers/outer, 1)
	compileWorkers := op.opts.CompileWorkers
	if compileWorkers == 0 {
		compileWorkers = inner
	}
	popts := core.PipelineOptions{
		CompileTimeout:   op.opts.Timeout,
		ShapleyTimeout:   op.opts.Timeout,
		CompileMaxNodes:  op.opts.MaxNodes,
		Workers:          inner,
		CompileWorkers:   compileWorkers,
		Speculate:        op.opts.Speculate,
		Portfolio:        op.opts.Portfolio,
		NoCanonicalCache: op.opts.NoCanonicalCache,
		Strategy:         op.opts.Strategy,
		CacheOwner:       op.d.ID(),
	}
	budget := op.opts.Budget
	anytime := budget.Enabled()
	if anytime && budget.MaxNodes > 0 && (popts.CompileMaxNodes == 0 || budget.MaxNodes < popts.CompileMaxNodes) {
		popts.CompileMaxNodes = budget.MaxNodes
	}

	es := make([]repro.TupleExplanation, len(live))
	per := make([]libCounts, len(live))
	err = parallel.ForEach(ctx, len(live), outer, func(_, i int) error {
		a := live[i]
		endo := lineageEndo(a.Lineage)
		e := &es[i]
		e.Tuple, e.NumFacts = a.Tuple, len(endo)

		s := tr.now()
		formula := core.TseytinStage(a.Lineage, endo)
		tr.add(layerTseytin, s)
		per[i].clauses = formula.NumClauses()

		s = tr.now()
		reduced, stats, err := core.CompileStage(ctx, formula, popts)
		if err == nil {
			per[i].nodes = dnnf.Size(reduced)
			tr.add(layerCompile, s)
		} else {
			tr.add(layerAborted, s)
		}
		per[i].decisions = stats.Decisions
		if err == nil {
			s = tr.now()
			var values core.Values
			values, err = core.ShapleyStage(ctx, reduced, endo, popts)
			var ranking []db.FactID
			if err == nil {
				ranking = values.Ranking()
			}
			tr.add(layerShapley, s)
			if err == nil {
				e.Method, e.Values, e.Ranking = repro.MethodExact, values, ranking
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, dnnf.ErrNodeBudget) {
			per[i].trips = 1
		}
		if anytime {
			s = tr.now()
			ap, aerr := core.ApproxStage(ctx, a.Lineage, endo, budget)
			var ranking []db.FactID
			if aerr == nil {
				ranking = ap.Ranking()
			}
			tr.add(layerApprox, s)
			if aerr != nil {
				return aerr
			}
			e.Method, e.Approx, e.Samples, e.ApproxSeed = repro.MethodApprox, ap.Estimates, ap.Permutations, ap.Seed
			e.DegradedCause, e.Ranking = degradeCause(err), ranking
			per[i].permutations = ap.Permutations
			return nil
		}
		s = tr.now()
		proxy := core.CNFProxy(formula, endo)
		ranking := proxy.Ranking()
		tr.add(layerProxy, s)
		e.Method, e.Proxy, e.Ranking = repro.MethodProxy, proxy, ranking
		return nil
	})
	tr.finish()
	for _, p := range per {
		c.add(p)
	}
	return tr, es, c, err
}

// degradeCause names why an exact attempt degraded, as core does.
func degradeCause(err error) string {
	switch {
	case errors.Is(err, dnnf.ErrNodeBudget):
		return core.CauseNodeBudget
	case errors.Is(err, dnnf.ErrTimeout), errors.Is(err, core.ErrShapleyTimeout), errors.Is(err, context.DeadlineExceeded):
		return core.CauseDeadline
	}
	return core.CauseError
}

func lineageEndo(lineage *circuit.Node) []db.FactID {
	vars := circuit.Vars(lineage)
	out := make([]db.FactID, len(vars))
	for i, v := range vars {
		out[i] = db.FactID(v)
	}
	return out
}

// sameExplanations reports the first difference between two answers to one
// call, timings aside: tuples, methods and rankings must match, exact values
// and CNF Proxy scores must be big.Rat-identical, and sampled estimates,
// sample counts and seeds identical.
func sameExplanations(want, got []repro.TupleExplanation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		switch {
		case !g.Tuple.Equal(w.Tuple):
			return fmt.Errorf("tuple %d is %v, want %v", i, g.Tuple, w.Tuple)
		case g.Method != w.Method:
			return fmt.Errorf("tuple %v: method %v, want %v", w.Tuple, g.Method, w.Method)
		case !slices.Equal(g.Ranking, w.Ranking):
			return fmt.Errorf("tuple %v: ranking differs", w.Tuple)
		case !sameRats(g.Values, w.Values) || !sameRats(g.Proxy, w.Proxy):
			return fmt.Errorf("tuple %v: values differ", w.Tuple)
		case !maps.Equal(g.Approx, w.Approx) || g.Samples != w.Samples || g.ApproxSeed != w.ApproxSeed:
			return fmt.Errorf("tuple %v: sampled estimates differ", w.Tuple)
		case g.DegradedCause != w.DegradedCause || g.NumFacts != w.NumFacts:
			return fmt.Errorf("tuple %v: degrade cause or fact count differs", w.Tuple)
		}
	}
	return nil
}

func sameRats[M ~map[db.FactID]*big.Rat](a, b M) bool {
	if len(a) != len(b) {
		return false
	}
	for id, x := range a {
		if y, ok := b[id]; !ok || x.Cmp(y) != 0 {
			return false
		}
	}
	return true
}
