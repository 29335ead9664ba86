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

// StageName identifies one named stage of the exact pipeline of Figure 3.
// The pipeline is an explicit chain — Tseytin → Compile → Shapley — and each
// stage's output can be cached per lineage epoch (see Artifacts), so a
// long-lived session recomputes only the stages whose inputs changed.
type StageName string

// The named stages, in dependency order.
const (
	// StageTseytin transforms the endogenous lineage circuit into CNF.
	StageTseytin StageName = "tseytin"
	// StageCompile knowledge-compiles the CNF to d-DNNF and eliminates the
	// Tseytin auxiliaries (Lemma 4.6).
	StageCompile StageName = "compile"
	// StageShapley runs Algorithm 1 over the reduced circuit.
	StageShapley StageName = "shapley"
)

// Artifacts caches one output tuple's per-stage pipeline products, each
// keyed by the lineage epoch it was computed at: a stage whose stored epoch
// matches the current one is skipped and its cached output reused; a stage
// recomputed at a newer epoch implicitly invalidates everything downstream.
// Failed stages are never cached. An Artifacts value assumes fixed pipeline
// options across calls (a session's options are fixed at Open); the zero
// value is an empty cache. Not safe for concurrent use — callers confine
// each Artifacts to one tuple's explanation at a time.
type Artifacts struct {
	hasCNF   bool
	cnfEpoch uint64
	cnf      *cnf.Formula

	hasDNNF      bool
	dnnfEpoch    uint64
	dnnf         *dnnf.Node
	dnnfSize     int
	compileStats dnnf.Stats

	hasValues   bool
	valuesEpoch uint64
	values      Values
}

// Invalidate drops every cached stage output, regardless of epoch.
func (a *Artifacts) Invalidate() { *a = Artifacts{} }

// TseytinStage is the pipeline's first named stage: the Tseytin
// transformation of the endogenous lineage, with the fact-ID range reserved
// so auxiliaries never collide with facts absent from this lineage.
func TseytinStage(elin *circuit.Node, endo []db.FactID) *cnf.Formula {
	return cnf.TseytinReserving(elin, maxFactID(endo))
}

// CompileStage is the pipeline's second named stage: knowledge compilation
// of the CNF to d-DNNF followed by auxiliary-variable elimination. It
// returns dnnf.ErrTimeout / dnnf.ErrNodeBudget on budget exhaustion.
func CompileStage(ctx context.Context, formula *cnf.Formula, opts PipelineOptions) (*dnnf.Node, dnnf.Stats, error) {
	compiled, stats, err := dnnf.Compile(ctx, formula, dnnf.Options{
		Timeout:          opts.CompileTimeout,
		MaxNodes:         opts.CompileMaxNodes,
		Cache:            opts.Cache,
		Workers:          opts.CompileWorkers,
		Speculate:        opts.Speculate,
		Portfolio:        opts.Portfolio,
		NoCanonicalCache: opts.NoCanonicalCache,
		CacheOwner:       opts.CacheOwner,
	})
	if err != nil {
		return nil, stats, err
	}
	return dnnf.EliminateAux(compiled, func(v int) bool { return formula.Aux[v] }), stats, nil
}

// ShapleyStage is the pipeline's third named stage: Algorithm 1 over the
// reduced circuit for every endogenous fact. Its own budget is expressed as
// a context deadline layered over the caller's context; when that stage
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

// ExplainCircuitAt runs the named stages of the exact pipeline for a
// lineage at the given epoch, reusing any stage output cached in art at the
// same epoch and storing fresh outputs back. art == nil runs every stage
// unconditionally (the one-shot ExplainCircuit). Reused stages report zero
// stage time in the result.
func ExplainCircuitAt(ctx context.Context, elin *circuit.Node, endo []db.FactID, epoch uint64, art *Artifacts, opts PipelineOptions) (*PipelineResult, error) {
	res := &PipelineResult{NumFacts: len(circuit.Vars(elin))}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	formula := (*cnf.Formula)(nil)
	if art != nil && art.hasCNF && art.cnfEpoch == epoch {
		formula = art.cnf
	} else {
		t0 := time.Now()
		_, tsp := trace.Start(ctx, string(StageTseytin))
		formula = TseytinStage(elin, endo)
		tsp.Set("clauses", formula.NumClauses())
		tsp.End()
		res.TseytinTime = time.Since(t0)
		if art != nil {
			// A fresh upstream output invalidates all downstream stages.
			*art = Artifacts{hasCNF: true, cnfEpoch: epoch, cnf: formula}
		}
	}
	res.CNF = formula
	res.NumClauses = formula.NumClauses()

	var reduced *dnnf.Node
	if art != nil && art.hasDNNF && art.dnnfEpoch == epoch {
		reduced = art.dnnf
		res.DNNFSize = art.dnnfSize
		res.CompileStats = art.compileStats
	} else {
		t1 := time.Now()
		cctx, csp := trace.Start(ctx, string(StageCompile))
		var stats dnnf.Stats
		var err error
		reduced, stats, err = CompileStage(cctx, formula, opts)
		res.CompileStats = stats
		if err != nil {
			csp.Set("error", err.Error())
			csp.End()
			return res, err
		}
		res.CompileTime = time.Since(t1)
		res.DNNFSize = dnnf.Size(reduced)
		csp.Set("nodes", res.DNNFSize)
		csp.End()
		if art != nil {
			art.hasDNNF, art.dnnfEpoch, art.dnnf = true, epoch, reduced
			art.dnnfSize, art.compileStats = res.DNNFSize, stats
			art.hasValues = false
		}
	}
	res.DNNF = reduced

	if art != nil && art.hasValues && art.valuesEpoch == epoch {
		res.Values = art.values
		return res, nil
	}
	t2 := time.Now()
	sctx, ssp := trace.Start(ctx, string(StageShapley))
	ssp.Set("facts", len(endo))
	values, err := ShapleyStage(sctx, reduced, endo, opts)
	res.ShapleyTime = time.Since(t2)
	if err != nil {
		ssp.Set("error", err.Error())
		ssp.End()
		return res, err
	}
	ssp.End()
	res.Values = values
	if art != nil {
		art.hasValues, art.valuesEpoch, art.values = true, epoch, values
	}
	return res, nil
}
