// Package repro is a from-scratch Go implementation of "Computing the
// Shapley Value of Facts in Query Answering" (Deutch, Frost, Kimelfeld,
// Monet; SIGMOD 2022). It quantifies the contribution of each database fact
// to a query answer using the game-theoretic Shapley value.
//
// The package is a facade over the internal implementation:
//
//   - an in-memory relational engine evaluating SPJU queries (unions of
//     conjunctive queries with filters) with Boolean provenance capture,
//   - a knowledge compiler from CNF to deterministic decomposable circuits
//     (d-DNNF), standing in for the c2d compiler,
//   - the paper's Algorithm 1 (exact Shapley values from d-DNNF circuits
//     via the #SAT_k dynamic program), CNF Proxy (Algorithm 2), the
//     Shapley-to-probabilistic-query-evaluation reduction
//     (Proposition 3.1), Monte Carlo and Kernel SHAP baselines, and the
//     hybrid exact-with-timeout strategy of Section 6.3.
//
// Basic usage:
//
//	d := repro.NewDatabase()
//	d.CreateRelation("Flights", "src", "dst")
//	d.MustInsert("Flights", true, repro.String("JFK"), repro.String("CDG"))
//	...
//	q, _ := repro.ParseQuery(`q() :- Flights(x, y), Airports(y, 'FR')`)
//	answers, _ := repro.Explain(context.Background(), d, q, repro.Options{})
//	for _, a := range answers {
//	    fmt.Println(a.Tuple, a.TopFacts(3))
//	}
package repro

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/pqe"
	"repro/internal/query"
)

// Re-exported data-model types. These aliases make the facade self-contained
// for in-module consumers (commands, examples, benchmarks).
type (
	// Database is an in-memory relational database of endogenous and
	// exogenous facts.
	Database = db.Database
	// Fact is one tuple of a relation with its provenance identity.
	Fact = db.Fact
	// FactID identifies a fact and doubles as its provenance variable.
	FactID = db.FactID
	// Tuple is an ordered list of values.
	Tuple = db.Tuple
	// Value is a typed constant (int, float, or string).
	Value = db.Value
	// Query is a union of conjunctive queries with filters (SPJU).
	Query = query.UCQ
	// Values maps facts to exact Shapley values (big.Rat).
	Values = core.Values
	// ProxyValues maps facts to CNF Proxy scores.
	ProxyValues = core.ProxyValues
)

// Value constructors, re-exported.
var (
	Int    = db.Int
	Float  = db.Float
	String = db.String
)

// Sentinel errors for client-addressable failure modes, re-exported:
// every mutation-path error wraps one of these (errors.Is), so callers —
// the HTTP service's status mapping, for one — classify failures without
// matching message text.
var (
	ErrUnknownRelation = db.ErrUnknownRelation
	ErrNoFact          = db.ErrNoFact
	ErrArity           = db.ErrArity
	// ErrDegraded wraps every mutation refused because a storage failure
	// moved the database to read-only degraded mode (Database.Err carries
	// the original failure). The HTTP service maps it to 503.
	ErrDegraded = db.ErrDegraded
)

// Durability knobs for persistent databases, re-exported.
type (
	// PersistConfig says where and how Database.Persist persists a
	// database: its directory and WAL sync policy.
	PersistConfig = db.PersistConfig
	// SyncPolicy says when the write-ahead log is fsynced relative to
	// mutation acknowledgements (see db.SyncPolicy for the contract).
	SyncPolicy = db.SyncPolicy
	// RecoveryInfo reports what OpenDatabaseInfo recovered and dropped.
	RecoveryInfo = db.RecoveryInfo
)

// Sync modes for SyncPolicy.Mode.
const (
	// SyncEveryN fsyncs after every N appended records (the default, with
	// N = db.DefaultSyncEvery when unset).
	SyncEveryN = db.SyncEveryN
	// SyncAlways fsyncs before acknowledging each mutation: no acknowledged
	// write is ever lost to a crash.
	SyncAlways = db.SyncAlways
	// SyncOnClose fsyncs only at Close and snapshot boundaries.
	SyncOnClose = db.SyncOnClose
)

// ParseSyncPolicy parses "always", "onclose", "every", or "every=N".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return db.ParseSyncPolicy(s) }

// NewDatabase returns an empty in-memory database. Database.Persist makes
// it persistent in place: from then on every schema change and mutation
// is logged under a directory, and OpenDatabase reloads it.
func NewDatabase() *Database { return db.New() }

// OpenDatabase reloads a database persisted by Database.Persist: facts
// keep their IDs and endogenous flags, and the database resumes logging to
// the same directory. Close it to flush the log.
func OpenDatabase(dir string) (*Database, error) {
	d, _, err := db.Open(db.PersistConfig{Dir: dir})
	return d, err
}

// OpenDatabaseInfo is OpenDatabase with the recovery report: how many
// snapshot and log records were replayed, and whether a torn log tail was
// truncated (how many bytes a crash cost). sync sets the reopened
// database's WAL sync policy (zero value = the default EveryN).
func OpenDatabaseInfo(dir string, sync SyncPolicy) (*Database, RecoveryInfo, error) {
	return db.Open(db.PersistConfig{Dir: dir, Sync: sync})
}

// DatabasePersisted reports whether dir holds a dataset persisted by a
// previous run, i.e. whether OpenDatabase would restore any state from it.
func DatabasePersisted(dir string) bool { return db.Persisted(dir) }

// ParseQuery parses a datalog-style UCQ; see internal/query for the syntax.
func ParseQuery(text string) (*Query, error) { return query.Parse(text) }

// Method identifies which algorithm produced an explanation.
type Method = core.Method

// ShapleyStrategy selects the Algorithm 1 evaluation mode.
type ShapleyStrategy = core.ShapleyStrategy

// Algorithm 1 evaluation strategies.
const (
	// StrategyAuto runs gradient mode, which beats per-fact at every
	// circuit size. This is the default.
	StrategyAuto = core.StrategyAuto
	// StrategyPerFact conditions the circuit twice per fact (the literal
	// Algorithm 1, O(n·|C|·n²) total).
	StrategyPerFact = core.StrategyPerFact
	// StrategyGradient computes all facts' conditioned counts in two
	// circuit passes (O(|C|·n²) total).
	StrategyGradient = core.StrategyGradient
)

// ParseShapleyStrategy parses "auto", "per-fact", or "gradient".
func ParseShapleyStrategy(s string) (ShapleyStrategy, error) {
	return core.ParseShapleyStrategy(s)
}

// Explanation methods.
const (
	// MethodExact means exact Shapley values were computed via knowledge
	// compilation and Algorithm 1.
	MethodExact = core.MethodExact
	// MethodProxy means the exact computation exceeded its budget and the
	// ranking was produced by the CNF Proxy heuristic.
	MethodProxy = core.MethodProxy
	// MethodApprox means an explain budget was exhausted (or approximation
	// requested outright) and the values are Monte Carlo estimates with 95%
	// confidence intervals.
	MethodApprox = core.MethodApprox
)

// Anytime-tier types, re-exported: a per-request compute budget and the
// sampled estimate it degrades to when exceeded.
type (
	// ExplainBudget bounds one explanation's exact attempt and configures
	// the sampling fallback; see core.ExplainBudget.
	ExplainBudget = core.ExplainBudget
	// ExplainMode picks the degradation policy (auto, exact, approximate).
	ExplainMode = core.ExplainMode
	// Estimate is one fact's sampled Shapley value with 95% CI bounds.
	Estimate = core.Estimate
)

// Explain modes for ExplainBudget.Mode.
const (
	// ModeAuto tries exact within the budget and samples on exhaustion.
	ModeAuto = core.ModeAuto
	// ModeExact disables the sampling fallback (proxy degradation as before).
	ModeExact = core.ModeExact
	// ModeApproximate skips the exact attempt and samples immediately.
	ModeApproximate = core.ModeApproximate
)

// ParseExplainMode parses "auto" (or ""), "exact", or "approximate".
func ParseExplainMode(s string) (ExplainMode, error) { return core.ParseExplainMode(s) }

// Options configures Explain.
type Options struct {
	// Timeout is the per-output-tuple budget for the exact computation,
	// applied to each stage on its own (knowledge compilation, then
	// Algorithm 1), before falling back to CNF Proxy — or to sampling when
	// Budget is enabled. Zero disables it (exact runs unbounded), mirroring
	// the paper's recommended hybrid with t = 2.5s when set.
	Timeout time.Duration
	// MaxNodes bounds the compiled circuit size (memory-exhaustion
	// analogue); zero means unbounded.
	MaxNodes int
	// Workers bounds the pipeline's total concurrency: output tuples are
	// explained in parallel, and leftover workers fan out Algorithm 1's
	// per-fact loop within each tuple (StrategyPerFact only; the gradient
	// is serial). Zero (the default) means GOMAXPROCS; 1 forces the fully
	// serial pipeline. Results are identical — and identically ordered —
	// for every setting. Negative values are invalid.
	Workers int
	// Deprecated: CompileWorkers was removed; every compile runs on one
	// goroutine. Validate rejects a nonzero value.
	CompileWorkers int
	// Deprecated: Speculate was removed; Validate rejects true.
	Speculate bool
	// Deprecated: Portfolio was removed; Validate rejects true.
	Portfolio bool
	// CacheSize sizes the process-wide value cache (number of lineages
	// whose exact Shapley values are retained across Explain calls). Zero
	// means the default size; -1 disables cross-call caching. Other
	// negative values are invalid.
	CacheSize int
	// Deprecated: NoCanonicalCache was removed; the value cache is always
	// keyed by the canonical (rename-invariant) form. Validate rejects true.
	NoCanonicalCache bool
	// Strategy selects the Algorithm 1 evaluation mode. The default,
	// StrategyAuto, runs the two-pass gradient algorithm; StrategyPerFact
	// runs the literal per-fact algorithm. Both produce identical exact
	// values.
	Strategy ShapleyStrategy
	// Budget is the anytime tier's per-request compute budget: when Enabled,
	// an explanation whose exact attempt exceeds Budget.MaxNodes or
	// Budget.Deadline degrades to Monte Carlo estimates with 95% confidence
	// intervals (MethodApprox) instead of failing or falling to the proxy,
	// and Budget.Mode == ModeApproximate skips the exact attempt entirely.
	// The zero budget changes nothing. Session.ExplainWithBudget overrides
	// it per call.
	Budget ExplainBudget
}

// Validate checks the options for values no pipeline configuration accepts
// and returns a descriptive error for the first offender. Explain and Open
// call it up front, so misconfiguration surfaces at the API boundary
// instead of being silently clamped deep in the pipeline. The documented
// sentinel CacheSize == -1, which disables caching, remains valid.
func (o Options) Validate() error {
	switch {
	case o.Timeout < 0:
		return fmt.Errorf("repro: Options.Timeout is negative (%v); use 0 to disable the proxy fallback", o.Timeout)
	case o.MaxNodes < 0:
		return fmt.Errorf("repro: Options.MaxNodes is negative (%d); use 0 for an unbounded circuit", o.MaxNodes)
	case o.Workers < 0:
		return fmt.Errorf("repro: Options.Workers is negative (%d); use 0 for GOMAXPROCS or 1 for the serial pipeline", o.Workers)
	case o.CompileWorkers != 0:
		return removedKnob("CompileWorkers", oneGoroutine)
	case o.Speculate:
		return removedKnob("Speculate", oneGoroutine)
	case o.Portfolio:
		return removedKnob("Portfolio", oneGoroutine)
	case o.NoCanonicalCache:
		return removedKnob("NoCanonicalCache", "the value cache is always keyed by the canonical (rename-invariant) form")
	case o.CacheSize < -1:
		return fmt.Errorf("repro: Options.CacheSize = %d is invalid; use 0 for the default capacity, -1 to disable caching, or a positive capacity", o.CacheSize)
	}
	switch o.Strategy {
	case StrategyAuto, StrategyPerFact, StrategyGradient:
	default:
		return fmt.Errorf("repro: Options.Strategy = %d is not a known ShapleyStrategy (use StrategyAuto, StrategyPerFact, or StrategyGradient)", o.Strategy)
	}
	return ValidateBudget(o.Budget)
}

// oneGoroutine is why the compiler's concurrency knobs were removed.
const oneGoroutine = "every compile runs on one goroutine, and Workers spreads the answers and Algorithm 1's per-fact loop"

// removedKnob is Validate's error for a set field of a removed knob; why
// says what took its place.
func removedKnob(name, why string) error {
	return fmt.Errorf("repro: Options.%s was removed; %s", name, why)
}

// ValidateBudget checks an anytime-tier budget for values no configuration
// accepts, in the same style as Options.Validate. Options.Validate and the
// per-call Session.ExplainWithBudget both run it, so a nonsensical budget is
// rejected at the API boundary whichever way it arrives.
func ValidateBudget(b ExplainBudget) error {
	switch {
	case b.MaxNodes < 0:
		return fmt.Errorf("repro: Options.Budget.MaxNodes is negative (%d); use 0 to defer to Options.MaxNodes", b.MaxNodes)
	case b.Deadline < 0:
		return fmt.Errorf("repro: Options.Budget.Deadline is negative (%v); use 0 for no per-request deadline", b.Deadline)
	case b.MinSamples < 0:
		return fmt.Errorf("repro: Options.Budget.MinSamples is negative (%d); use 0 for the sampler's default permutation floor", b.MinSamples)
	case b.TargetCI != 0 && (b.TargetCI <= 0 || b.TargetCI >= 1):
		return fmt.Errorf("repro: Options.Budget.TargetCI = %g is outside (0, 1); use 0 for the default 95%%-CI half-width target", b.TargetCI)
	}
	switch b.Mode {
	case ModeAuto, ModeExact, ModeApproximate:
	default:
		return fmt.Errorf("repro: Options.Budget.Mode = %d is not a known ExplainMode (use ModeAuto, ModeExact, or ModeApproximate)", b.Mode)
	}
	return nil
}

// TupleExplanation is the result for one output tuple: either exact Shapley
// values or proxy scores, plus the derived fact ranking.
type TupleExplanation struct {
	// Tuple is the output tuple being explained.
	Tuple Tuple
	// Method says whether Values (exact) or Proxy scores were produced.
	Method Method
	// Values holds exact Shapley values per endogenous fact (nil when
	// Method == MethodProxy).
	Values Values
	// Proxy holds CNF Proxy scores (nil when Method == MethodExact).
	Proxy ProxyValues
	// Approx holds sampled estimates with 95% CI bounds (nil unless
	// Method == MethodApprox).
	Approx map[FactID]Estimate
	// Samples is how many permutations the sampler spent (MethodApprox
	// only); ApproxSeed reproduces the run.
	Samples    int
	ApproxSeed int64
	// DegradedCause says why a budgeted explanation degraded to MethodApprox
	// ("mode", "node_budget", "deadline", or "error"); empty otherwise.
	DegradedCause string
	// Ranking lists the endogenous facts of the tuple's provenance by
	// decreasing contribution.
	Ranking []FactID
	// NumFacts is the number of distinct endogenous facts in the lineage.
	NumFacts int
	// Elapsed is the wall-clock cost of explaining this tuple.
	Elapsed time.Duration

	// rendered is the memo Rendering keeps. A session's cached explanation
	// shares it with every copy it hands out, so a rendering made for one
	// request serves the next; it dies with the explanation it renders.
	rendered *atomic.Pointer[rendering]
}

// rendering is one kept rendering of an explanation: its bytes and the
// number of ranked facts they list.
type rendering struct {
	cut int
	b   []byte
}

// maxRenderingBytes bounds the renderings Rendering keeps. A rendering grows
// with the facts it lists, about 85 bytes each: top-10 renderings take
// under 1 KiB, while a top-0 rendering of a tuple with thousands of facts is
// as large as its explanation. Keeping only short ones bounds the memos by
// a constant per live answer, so such a tuple is rendered afresh each time
// instead of pinning a second copy of its explanation.
const maxRenderingBytes = 4 << 10

// Rendering returns e's rendering with its ranking cut to top, as render
// appends it to an empty buffer, and reports whether the bytes were kept
// from an earlier call. A session's cached explanation keeps the last
// rendering of at most maxRenderingBytes, shared with every copy of it the
// session hands out, and a later call at a top that lists the same facts
// returns those bytes without calling render; the memo goes away when the
// session replaces the explanation or the tuple leaves the answer. Other
// explanations render every time.
//
// render must resolve fact content against the database state e was
// computed on, which a session guarantees while the caller holds off the
// database's writers from the explain to the rendering. The returned bytes
// may be shared and must not be modified. Rendering is safe for concurrent
// use: two calls rendering one explanation at once both render, and either
// result is kept.
func (e *TupleExplanation) Rendering(top int, render func(dst []byte, e *TupleExplanation, top int) ([]byte, error)) ([]byte, bool, error) {
	cut := len(e.Ranking)
	if top > 0 && top < cut {
		cut = top
	}
	if e.rendered != nil {
		if r := e.rendered.Load(); r != nil && r.cut == cut {
			return r.b, true, nil
		}
	}
	b, err := render(nil, e, top)
	if err != nil {
		return nil, false, err
	}
	if e.rendered != nil && len(b) <= maxRenderingBytes {
		e.rendered.Store(&rendering{cut: cut, b: slices.Clip(b)})
	}
	return b, false, nil
}

// TopFacts returns the k highest-contributing facts.
func (e *TupleExplanation) TopFacts(k int) []FactID {
	if k > len(e.Ranking) {
		k = len(e.Ranking)
	}
	return e.Ranking[:k]
}

// Score returns the fact's contribution as a float: the exact Shapley value
// under MethodExact, the sampled estimate under MethodApprox, the proxy
// score otherwise.
func (e *TupleExplanation) Score(f FactID) float64 {
	switch e.Method {
	case MethodExact:
		return ratFloat(e.Values[f])
	case MethodApprox:
		return e.Approx[f].Value
	}
	return ratFloat(e.Proxy[f])
}

// ratFloat returns the float64 nearest r, as r.Float64 does. When the
// numerator and the denominator are at most 2^53 in magnitude, both are
// exact float64s and one division, which IEEE 754 rounds to nearest as
// well, gives the same value without big.Rat's allocations.
func ratFloat(r *big.Rat) float64 {
	const exact = 1 << 53
	if n := r.Num(); n.IsInt64() && -exact <= n.Int64() && n.Int64() <= exact {
		if r.IsInt() {
			return float64(n.Int64())
		}
		if d := r.Denom(); d.IsInt64() && d.Int64() <= exact {
			return float64(n.Int64()) / float64(d.Int64())
		}
	}
	v, _ := r.Float64()
	return v
}

// sharedCache is the process-wide cross-call value cache behind
// Options.CacheSize. Lazily created on first use; later calls asking for a
// larger size grow it in place so concurrent users keep their working sets.
var (
	sharedCacheMu sync.Mutex
	sharedCache   *core.ValueCache
)

func valueCache(size int) *core.ValueCache {
	if size < 0 {
		return nil
	}
	sharedCacheMu.Lock()
	defer sharedCacheMu.Unlock()
	if sharedCache == nil {
		sharedCache = core.NewValueCache(size)
	} else if size > 0 {
		sharedCache.Grow(size)
	}
	return sharedCache
}

// CompileCacheStats returns a snapshot of the process-wide value cache
// counters — the cache every session with CacheSize ≥ 0 shares — or a zero
// snapshot if no session or Explain call has created it yet. The
// explanation service serves it on GET /metrics as the
// repro_compile_cache_* series, next to its session-pool counters.
func CompileCacheStats() core.CacheStats {
	sharedCacheMu.Lock()
	defer sharedCacheMu.Unlock()
	if sharedCache == nil {
		return core.CacheStats{}
	}
	return sharedCache.Stats()
}

// Explain evaluates the query over the database and explains every output
// tuple: it computes, for each endogenous fact appearing in the tuple's
// provenance, its exact Shapley value (or, past the time budget, its CNF
// Proxy score). This is the end-to-end pipeline of Figure 3 combined with
// the Section 6.3 hybrid strategy.
//
// Explain is the one-shot form of the stateful API: it opens a Session,
// explains every tuple once, and closes the session. Callers that ask the
// same question repeatedly — or that update the database between questions
// — should hold a Session open instead, which maintains lineage and
// explanations incrementally across calls.
//
// Output tuples are explained concurrently across opts.Workers goroutines
// (each answer's lineage is independent of the others), with the slice
// returned in query-evaluation order regardless of completion order.
// Cancelling ctx aborts the remaining work and returns the context's error.
func Explain(ctx context.Context, d *Database, q *Query, opts Options) ([]TupleExplanation, error) {
	s, err := OpenContext(ctx, d, q, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Explain(ctx)
}

// ExplainBoolean explains a Boolean query's positive answer. It returns an
// error if the query is non-Boolean; a query that is false on the full
// database yields an explanation with no facts.
func ExplainBoolean(ctx context.Context, d *Database, q *Query, opts Options) (*TupleExplanation, error) {
	if !q.IsBoolean() {
		return nil, fmt.Errorf("repro: query has arity %d, want Boolean", q.Arity())
	}
	es, err := Explain(ctx, d, q, opts)
	if err != nil {
		return nil, err
	}
	if len(es) == 0 {
		return &TupleExplanation{Method: MethodExact, Values: Values{}}, nil
	}
	return &es[0], nil
}

// ShapleyViaProbabilisticDB computes exact Shapley values for a Boolean
// query using only probabilistic-query-evaluation oracle calls, per the
// reduction of Proposition 3.1. It is slower than Explain but demonstrates
// (and cross-checks) the theoretical connection to probabilistic databases.
func ShapleyViaProbabilisticDB(ctx context.Context, d *Database, q *Query) (Values, error) {
	return pqe.ShapleyViaPQE(ctx, d, q, dnnf.Options{})
}

// Hierarchical reports whether every disjunct of the query is hierarchical.
// For self-join-free conjunctive queries this is exactly the class for
// which Shapley computation (and PQE) is tractable in the worst case; the
// knowledge-compilation pipeline frequently succeeds well beyond it.
func Hierarchical(q *Query) bool {
	for _, d := range q.Disjuncts {
		if !d.IsHierarchical() {
			return false
		}
	}
	return true
}

// EfficiencySum returns Σ_f values[f]; by the Shapley efficiency axiom it
// equals q(Dn ∪ Dx) − q(Dx) for the explained tuple's Boolean game.
func EfficiencySum(v Values) *big.Rat { return v.Sum() }

func lineageEndo(lineage *circuit.Node) []FactID {
	vars := circuit.Vars(lineage)
	out := make([]FactID, len(vars))
	for i, v := range vars {
		out[i] = FactID(v)
	}
	return out
}
