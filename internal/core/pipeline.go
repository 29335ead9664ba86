package core

import (
	"errors"
	"time"

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
	// Deprecated: CompileWorkers is ignored; every compile is sequential.
	CompileWorkers int
	// Deprecated: Speculate is ignored; every compile is sequential.
	Speculate bool
	// Deprecated: Portfolio is ignored; every compile branches by the one
	// (most-frequent) heuristic.
	Portfolio bool
	// Deprecated: NoCanonicalCache is ignored; Cache is always keyed by the
	// canonical (rename-invariant) form.
	NoCanonicalCache bool
	// Strategy selects the Algorithm 1 evaluation mode (StrategyAuto is
	// gradient; both modes are exact and big.Rat-identical).
	Strategy ShapleyStrategy
	// Cache, when non-nil, is a cross-call cache of exact Shapley values
	// shared between pipeline invocations (and goroutines): a lineage whose
	// CNF it already holds, up to a renaming of facts, skips Algorithm 1 and,
	// except for a renamed hit under CompileMaxNodes, compilation too (that
	// hit compiles the caller's CNF to decide the budget).
	Cache *ValueCache
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
	// (Lemma 4.6); its variables are endogenous fact IDs. Nil on a value
	// cache hit, which keeps no circuit (a renamed hit under CompileMaxNodes
	// compiles only to decide the budget).
	DNNF *dnnf.Node
	// Values holds the exact Shapley value of every endogenous fact.
	Values Values
	// Cache names how the value cache served this result: CacheIdentical or
	// CacheRenamed for a hit, CacheMiss otherwise; "" without a cache. A
	// hit reports the DNNFSize of the compile that filled the entry.
	Cache string

	NumFacts    int // distinct endogenous facts in the lineage
	NumClauses  int
	DNNFSize    int
	TseytinTime time.Duration
	CompileTime time.Duration
	ShapleyTime time.Duration
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
