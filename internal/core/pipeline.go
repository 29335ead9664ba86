package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// ErrShapleyTimeout is returned when the Shapley evaluation step (not the
// compilation) exceeds its deadline.
var ErrShapleyTimeout = errors.New("core: Shapley evaluation timed out")

// PipelineOptions configures the exact pipeline of Figure 3.
type PipelineOptions struct {
	// CompileTimeout bounds the knowledge-compilation step (zero = none).
	CompileTimeout time.Duration
	// CompileMaxNodes bounds d-DNNF size, standing in for c2d's memory
	// exhaustion failures (zero = none).
	CompileMaxNodes int
	// ShapleyTimeout bounds Algorithm 1 itself (zero = none). The check is
	// per-fact, matching the granularity at which work can be abandoned.
	ShapleyTimeout time.Duration
	// Workers is the fan-out of Algorithm 1 across facts in per-fact mode
	// (≤ 0 = GOMAXPROCS, 1 = serial); gradient mode is serial and ignores
	// it. Results are identical for every setting.
	Workers int
	// CompileWorkers is the knowledge compiler's intra-compilation fan-out:
	// independent connected components compile concurrently across up to
	// this many goroutines (≤ 0 = GOMAXPROCS, 1 = the sequential compiler).
	// Circuits are semantically identical for every setting.
	CompileWorkers int
	// Speculate compiles the two cofactors of shallow Shannon decisions
	// concurrently inside the knowledge compiler — the parallelism source
	// for single-component lineages, where component fan-out has nothing to
	// split. Inert at CompileWorkers == 1; circuits stay semantically
	// identical for every setting.
	Speculate bool
	// Portfolio races the compiler's variable-ordering heuristics on the
	// same CNF, first finisher wins and populates Cache. Requires ≥ 2
	// compile workers to engage.
	Portfolio bool
	// NoCanonicalCache keys Cache by the byte-identical CNF instead of the
	// rename-invariant canonical form (ablation; canonical is the default).
	NoCanonicalCache bool
	// Strategy selects the Algorithm 1 evaluation mode (StrategyAuto is
	// gradient; both modes are exact and big.Rat-identical).
	Strategy ShapleyStrategy
	// Cache, when non-nil, is a cross-call d-DNNF compilation cache shared
	// between pipeline invocations (and goroutines).
	Cache *dnnf.CompileCache
	// CacheOwner tags Cache entries with the identity of the fact-ID
	// universe this lineage comes from (the database ID), scoping the
	// cache's fact-set invalidation under updates; 0 = untagged.
	CacheOwner uint64
}

// PipelineResult carries the artifacts and stage timings of one end-to-end
// exact computation for a single output tuple.
type PipelineResult struct {
	// CNF is the Tseytin transformation of the endogenous lineage.
	CNF *cnf.Formula
	// DNNF is the compiled circuit after Tseytin-variable elimination
	// (Lemma 4.6); its variables are endogenous fact IDs.
	DNNF *dnnf.Node
	// Values holds the exact Shapley value of every endogenous fact.
	Values Values

	NumFacts     int // distinct endogenous facts in the lineage
	NumClauses   int
	DNNFSize     int
	TseytinTime  time.Duration
	CompileTime  time.Duration
	ShapleyTime  time.Duration
	CompileStats dnnf.Stats
}

// ExplainCircuit runs the full exact pipeline on an endogenous lineage
// circuit — the named stages StageTseytin, StageCompile, and StageShapley
// in order (see stages.go): Tseytin transformation, knowledge compilation
// to d-DNNF with auxiliary-variable elimination (Lemma 4.6), and
// Algorithm 1 for every endogenous fact. It returns dnnf.ErrTimeout or
// dnnf.ErrNodeBudget when compilation exceeds its budget and
// ErrShapleyTimeout when evaluation does; in those cases the hybrid
// strategy falls back to CNF Proxy. Cancelling ctx aborts either stage and
// propagates the context's own error (never a budget sentinel), so callers
// can distinguish "over budget" from "caller gave up".
func ExplainCircuit(ctx context.Context, elin *circuit.Node, endo []db.FactID, opts PipelineOptions) (*PipelineResult, error) {
	return ExplainCircuitAt(ctx, elin, endo, 0, nil, opts)
}

// maxFactID returns the largest endogenous fact ID, used to reserve the
// fact-ID range so Tseytin auxiliaries never collide with facts absent from
// the lineage.
func maxFactID(endo []db.FactID) int {
	m := 0
	for _, id := range endo {
		if int(id) > m {
			m = int(id)
		}
	}
	return m
}
