package core

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/trace"
)

// TseytinStage is the pipeline's first stage: the Tseytin transformation of
// the endogenous lineage, with the fact-ID range reserved so auxiliaries
// never collide with facts absent from this lineage.
func TseytinStage(elin *circuit.Node, endo []db.FactID) *cnf.Formula {
	return cnf.TseytinReserving(elin, maxFactID(endo))
}

// CompileStage is the pipeline's second stage: knowledge compilation of the
// CNF to d-DNNF followed by auxiliary-variable elimination. It returns
// dnnf.ErrTimeout / dnnf.ErrNodeBudget on budget exhaustion.
func CompileStage(ctx context.Context, formula *cnf.Formula, opts PipelineOptions) (*dnnf.Node, dnnf.Stats, error) {
	compiled, stats, err := dnnf.Compile(ctx, formula, compileOptions(opts))
	if err != nil {
		return nil, stats, err
	}
	return dnnf.EliminateAux(compiled, func(v int) bool { return formula.Aux[v] }), stats, nil
}

// compileOptions is the compiler's configuration under opts, shared by
// CompileStage and a renamed hit's budget check so both decide a budget
// alike.
func compileOptions(opts PipelineOptions) dnnf.Options {
	return dnnf.Options{Timeout: opts.CompileTimeout, MaxNodes: opts.CompileMaxNodes}
}

// ShapleyStage is the pipeline's third stage: Algorithm 1 over the reduced
// circuit for every endogenous fact. Its own budget is expressed as a
// context deadline layered over the caller's context; when that stage
// deadline (not the caller's) fires, the error is ErrShapleyTimeout.
func ShapleyStage(ctx context.Context, reduced *dnnf.Node, endo []db.FactID, opts PipelineOptions) (Values, error) {
	sctx := ctx
	if opts.ShapleyTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, opts.ShapleyTimeout)
		defer cancel()
	}
	values, err := ShapleyAllStrategy(sctx, reduced, endo, opts.Workers, opts.Strategy)
	if err != nil && ctx.Err() == nil {
		// The stage deadline fired, not the caller's context.
		err = ErrShapleyTimeout
	}
	return values, err
}

// hitFits decides whether a value-cache hit meets opts.CompileMaxNodes, which
// models memory exhaustion, so that the hit fails exactly where the caller's
// own compile would. An identical hit compares the node count that the
// filling compile's budget checks saw. A renamed hit compiles the caller's
// CNF under the budget and what is left of the stage's timeout after the
// lookup that started at start, recording the decisions on sp: the freq
// pick breaks ties by variable number, so a renaming of one CNF can compile
// to another count.
func hitFits(ctx context.Context, sp *trace.Span, formula *cnf.Formula, sl slot, opts PipelineOptions, start time.Time) error {
	if sl.kind == CacheIdentical {
		if sl.entry.nodes > opts.CompileMaxNodes {
			return dnnf.ErrNodeBudget
		}
		return nil
	}
	if err := charge(&opts, start); err != nil {
		return err
	}
	_, stats, err := dnnf.Compile(ctx, formula, compileOptions(opts))
	sp.Set("decisions", stats.Decisions)
	return err
}

// charge takes the time since start off opts.CompileTimeout, the compile
// stage's budget, and fails with dnnf.ErrTimeout when none is left.
func charge(opts *PipelineOptions, start time.Time) error {
	if opts.CompileTimeout > 0 {
		if opts.CompileTimeout -= time.Since(start); opts.CompileTimeout <= 0 {
			return dnnf.ErrTimeout
		}
	}
	return nil
}

// ExplainCircuit runs the full exact pipeline on an endogenous lineage
// circuit — TseytinStage, CompileStage and ShapleyStage in order, under
// "tseytin", "compile" and "shapley" spans: Tseytin transformation,
// knowledge compilation to d-DNNF with auxiliary-variable elimination
// (Lemma 4.6), and Algorithm 1 for every endogenous fact. The compile span
// names the value-cache outcome and carries the circuit's size; a compile
// that ran adds its decisions from dnnf.Stats. With opts.Cache set, the
// compile stage first looks the CNF up in the value cache, and a hit skips
// compilation, elimination and Algorithm 1 alike, except that under
// opts.CompileMaxNodes a renamed hit compiles to decide the budget (see
// hitFits). It returns dnnf.ErrTimeout or dnnf.ErrNodeBudget when
// compilation exceeds its budget and ErrShapleyTimeout when evaluation does;
// in those cases the hybrid strategy falls back to CNF Proxy. Cancelling ctx
// aborts either stage and propagates the context's own error (never a budget
// sentinel), so callers can distinguish "over budget" from "caller gave up".
func ExplainCircuit(ctx context.Context, elin *circuit.Node, endo []db.FactID, opts PipelineOptions) (*PipelineResult, error) {
	res := &PipelineResult{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	failed := func(sp *trace.Span, err error) (*PipelineResult, error) {
		sp.Set("error", err.Error())
		sp.End()
		return res, err
	}

	t0 := time.Now()
	_, tsp := trace.Start(ctx, "tseytin")
	// TseytinStage's transformation, counting the lineage's facts in the
	// same walk.
	formula, numFacts := cnf.TseytinCounting(elin, maxFactID(endo))
	res.NumFacts = numFacts
	tsp.Set("clauses", formula.NumClauses())
	tsp.End()
	res.TseytinTime = time.Since(t0)
	res.CNF = formula
	res.NumClauses = formula.NumClauses()

	t1 := time.Now()
	cctx, csp := trace.Start(ctx, "compile")
	var sl slot
	if opts.Cache != nil {
		var err error
		if sl, err = opts.Cache.lookup(cctx, formula, opts); err != nil {
			return failed(csp, err)
		}
		res.Cache = sl.kind
		csp.Set("cache", sl.kind)
		if sl.entry != nil {
			if opts.CompileMaxNodes > 0 {
				if err := hitFits(cctx, csp, formula, sl, opts, t1); err != nil {
					return failed(csp, err)
				}
			}
			res.Values = sl.values(endo)
			res.DNNFSize = sl.entry.size
			res.CompileTime = time.Since(t1)
			csp.Set("nodes", res.DNNFSize)
			csp.End()
			return res, nil
		}
		defer opts.Cache.release(sl.key)
		// The lookup spent part of the compile stage's budget.
		if err := charge(&opts, t1); err != nil {
			return failed(csp, err)
		}
	}
	reduced, stats, err := CompileStage(cctx, formula, opts)
	if csp != nil {
		csp.Set("decisions", stats.Decisions)
	}
	if err != nil {
		return failed(csp, err)
	}
	res.CompileTime = time.Since(t1)
	res.DNNF = reduced
	res.DNNFSize = dnnf.Size(reduced)
	csp.Set("nodes", res.DNNFSize)
	csp.End()

	t2 := time.Now()
	sctx, ssp := trace.Start(ctx, "shapley")
	ssp.Set("facts", len(endo))
	values, err := ShapleyStage(sctx, reduced, endo, opts)
	res.ShapleyTime = time.Since(t2)
	if err != nil {
		return failed(ssp, err)
	}
	ssp.End()
	res.Values = values
	if opts.Cache != nil {
		opts.Cache.put(sl, values, stats.CheckedNodes, res.DNNFSize, opts.CacheOwner)
	}
	return res, nil
}
