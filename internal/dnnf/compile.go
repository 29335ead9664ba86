package dnnf

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Compilation errors. A compilation that exceeds its time or size budget
// fails with one of these; the hybrid strategy of Section 6.3 falls back to
// CNF Proxy on such failures, mirroring the paper's out-of-memory and
// timeout failures of c2d.
var (
	ErrTimeout    = errors.New("dnnf: compilation timed out")
	ErrNodeBudget = errors.New("dnnf: compilation exceeded node budget")
)

// VarOrder selects the branching-variable heuristic.
type VarOrder uint8

// Branching heuristics.
const (
	// OrderMostFrequent branches on the variable occurring in the most
	// active clauses (a dynamic degree heuristic, the default).
	OrderMostFrequent VarOrder = iota
	// OrderLexicographic branches on the smallest-numbered variable; kept
	// as an ablation baseline.
	OrderLexicographic
	// OrderJeroslowWang branches on the variable maximizing the two-sided
	// Jeroslow–Wang score Σ_{cl ∋ v} 2^-|cl| over the active clauses — a
	// dynamic heuristic that weights short clauses exponentially harder
	// than the plain occurrence count does. It explores a genuinely
	// different decision tree from OrderMostFrequent, which is what makes
	// it a useful portfolio racer.
	OrderJeroslowWang

	// numVarOrders bounds the VarOrder space (used by the portfolio win
	// counters).
	numVarOrders = 3
)

// String names the heuristic ("freq", "lex", "jw").
func (o VarOrder) String() string {
	switch o {
	case OrderLexicographic:
		return "lex"
	case OrderJeroslowWang:
		return "jw"
	default:
		return "freq"
	}
}

// ParseVarOrder parses a heuristic name as printed by VarOrder.String.
func ParseVarOrder(s string) (VarOrder, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "freq", "most-frequent":
		return OrderMostFrequent, nil
	case "lex", "lexicographic":
		return OrderLexicographic, nil
	case "jw", "jeroslow-wang":
		return OrderJeroslowWang, nil
	}
	return OrderMostFrequent, fmt.Errorf("dnnf: unknown variable order %q (want freq, lex, or jw)", s)
}

// Options configures compilation.
type Options struct {
	// Timeout bounds wall-clock compilation time; zero means no limit.
	Timeout time.Duration
	// MaxNodes bounds the number of d-DNNF nodes allocated; zero means no
	// limit. This plays the role of c2d running out of memory.
	MaxNodes int
	// DisableCache turns off component caching (ablation).
	DisableCache bool
	// Order selects the branching heuristic.
	Order VarOrder
	// Cache, when non-nil, is a cross-call LRU consulted before compiling
	// and updated after: repeated compilations of the same formula return
	// the previously compiled circuit. Safe for concurrent use.
	Cache *CompileCache
	// Workers bounds intra-compilation parallelism: independent connected
	// components of the residual clause set fan out across up to Workers
	// goroutines (≤ 0 = GOMAXPROCS). Workers == 1 is the fully sequential
	// compiler and produces the exact circuit (node IDs included) the
	// pre-parallel implementation did; higher counts produce semantically
	// identical circuits whose node numbering depends on scheduling.
	Workers int
	// Speculate additionally compiles the hi and lo cofactors of shallow
	// Shannon decisions concurrently — the two cofactors are independent by
	// construction, so this parallelizes single-component instances, where
	// component fan-out has nothing to split. Speculation rides the same
	// spawn-token pool as the component fan-out (so Workers still bounds
	// total parallelism), is capped by the same recursion depth, and is
	// inert at Workers == 1. A branch that fails its budget cancels its
	// in-flight sibling immediately; cofactors that are unsatisfiable at
	// assignment time never spawn a sibling at all. Node and step budgets
	// are accounted on shared atomics, so MaxNodes semantics are unchanged.
	Speculate bool
	// Portfolio races the same CNF under different branching heuristics
	// (the configured Order plus the dynamic heuristics it is not), each
	// racer on its own builder with an equal share of the Workers budget.
	// The first racer to finish wins: its circuit is returned (and enters
	// Cache under the canonical key, so a win anywhere is fleet-wide) and
	// the losers are cancelled via context. Requires Workers ≥ 2 to engage;
	// with Workers == 1 compilation is byte-identical to the sequential
	// compiler. MaxNodes bounds each racer's builder: the compilation fails
	// with ErrNodeBudget only when every racer exhausts it.
	Portfolio bool
	// NoCanonicalCache keys the cross-call Cache by the byte-identical
	// formula signature instead of the rename-invariant canonical form
	// (ablation). With canonical keying — the default — compilations of
	// formulas that are equal up to a variable renaming share one cache
	// entry; the cached circuit is relabeled to the caller's variables on
	// each hit.
	NoCanonicalCache bool
	// CacheOwner tags the Cache entry this compilation populates with the
	// identity of the fact-ID universe its variables come from (the
	// database ID, for lineage compilations; 0 = untagged). It scopes
	// CompileCache.Invalidate — fact IDs collide across databases — and
	// never affects lookups.
	CacheOwner uint64
}

// Stats reports compilation effort.
type Stats struct {
	Decisions    int
	Propagations int
	CacheHits    int
	CacheMisses  int
	Components   int
	Nodes        int
	Elapsed      time.Duration
	// CrossCallHit reports that the whole compilation was answered from a
	// cross-call CompileCache, in which case the effort counters are zero.
	CrossCallHit bool
	// RenamedHit reports that the cross-call hit was served under the
	// canonical key for a formula that differed from the cached one by a
	// variable renaming, so the circuit was relabeled for this caller.
	RenamedHit bool
	// SpeculatedDecisions counts Shannon decisions whose cofactors compiled
	// concurrently; SpeculationCancels counts siblings that were cancelled
	// mid-flight because the other branch failed its budget.
	SpeculatedDecisions int
	SpeculationCancels  int
	// PortfolioRacers is how many heuristics raced this compilation (0 when
	// portfolio mode was off or did not engage); PortfolioLosersCancelled
	// counts racers cancelled after the winner finished; PortfolioWinner
	// names the winning heuristic ("" when no race ran). The effort
	// counters above are the winning racer's.
	PortfolioRacers          int
	PortfolioLosersCancelled int
	PortfolioWinner          string
}

func (s Stats) String() string {
	out := fmt.Sprintf("decisions=%d props=%d cacheHits=%d cacheMisses=%d components=%d nodes=%d crossHit=%v renamedHit=%v elapsed=%v",
		s.Decisions, s.Propagations, s.CacheHits, s.CacheMisses, s.Components, s.Nodes, s.CrossCallHit, s.RenamedHit, s.Elapsed)
	if s.SpeculatedDecisions > 0 || s.SpeculationCancels > 0 {
		out += fmt.Sprintf(" speculated=%d specCancels=%d", s.SpeculatedDecisions, s.SpeculationCancels)
	}
	if s.PortfolioRacers > 0 {
		out += fmt.Sprintf(" portfolio=%d winner=%s losersCancelled=%d", s.PortfolioRacers, s.PortfolioWinner, s.PortfolioLosersCancelled)
	}
	return out
}

// parallelComponentFloor is the size cutoff for fanning a component out to
// another goroutine: components with fewer clauses compile in about the time
// a goroutine handoff costs, so they stay on the current worker.
const parallelComponentFloor = 8

// speculateClauseFloor is the analogous cutoff for speculative decision
// branching: a cofactor of a smaller clause set compiles faster than the
// spawn costs.
const speculateClauseFloor = 8

// compiler carries the mutable compilation state. All fields written during
// the recursion are either atomic or mutex-guarded, because the component
// fan-out and speculative decision branching may run subproblems on several
// goroutines at once.
type compiler struct {
	b        *Builder
	opts     Options
	deadline time.Time
	// limit is the spawn budget shared by component fan-out and speculative
	// decision branching; nil means the fully sequential compiler.
	limit *parallel.Limit

	cacheMu sync.RWMutex
	cache   map[string]*Node

	decisions    atomic.Int64
	propagations atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	components   atomic.Int64
	steps        atomic.Int64
	speculated   atomic.Int64
	specCancels  atomic.Int64
}

// newCompiler builds a compiler for one (possibly racing) compilation.
// start anchors the deadline so portfolio racers share one clock.
func newCompiler(opts Options, start time.Time) *compiler {
	c := &compiler{
		b:     NewBuilder(),
		opts:  opts,
		cache: make(map[string]*Node),
		limit: parallel.NewLimit(parallel.Workers(opts.Workers) - 1),
	}
	if opts.Timeout > 0 {
		c.deadline = start.Add(opts.Timeout)
	}
	return c
}

// snapshot folds the atomic counters into a Stats value.
func (c *compiler) snapshot(start time.Time) Stats {
	return Stats{
		Decisions:           int(c.decisions.Load()),
		Propagations:        int(c.propagations.Load()),
		CacheHits:           int(c.cacheHits.Load()),
		CacheMisses:         int(c.cacheMisses.Load()),
		Components:          int(c.components.Load()),
		Nodes:               c.b.NumNodes(),
		SpeculatedDecisions: int(c.speculated.Load()),
		SpeculationCancels:  int(c.specCancels.Load()),
		Elapsed:             time.Since(start),
	}
}

// compileRoot runs the recursive compilation from the top, seeding the
// occurrence counts when the configured heuristic consumes them.
func (c *compiler) compileRoot(ctx context.Context, clauses []cnf.Clause) (*Node, error) {
	var counts *occCounts
	if c.opts.Order == OrderMostFrequent {
		counts = newOccCounts(clauses)
	}
	return c.compile(ctx, clauses, 0, counts)
}

// Compile translates a CNF formula into an equivalent d-DNNF using
// exhaustive DPLL with unit propagation, connected-component decomposition
// (yielding decomposable ∧-gates), Shannon decisions (yielding deterministic
// ∨-gates), and component caching — the classic construction behind c2d and
// dsharp. The context carries external cancellation (distinct from
// Options.Timeout, which is this compilation's own budget and yields
// ErrTimeout); ctx errors are returned as-is. When ctx carries a trace
// collector, the compilation records a "dnnf" span annotated with the
// workers granted, the cache-hit kind, and the speculation and portfolio
// outcomes.
func Compile(ctx context.Context, f *cnf.Formula, opts Options) (*Node, Stats, error) {
	ctx, sp := trace.Start(ctx, "dnnf")
	root, stats, err := compileFormula(ctx, f, opts)
	if sp != nil {
		sp.Set("clauses", len(f.Clauses))
		sp.Set("workers", parallel.Workers(opts.Workers))
		sp.Set("nodes", stats.Nodes)
		sp.Set("decisions", stats.Decisions)
		if opts.Cache != nil {
			switch {
			case stats.RenamedHit:
				sp.Set("cache", "renamed")
			case stats.CrossCallHit:
				sp.Set("cache", "identical")
			default:
				sp.Set("cache", "miss")
			}
		}
		if opts.Speculate {
			sp.Set("speculated", stats.SpeculatedDecisions)
			sp.Set("speculation_cancels", stats.SpeculationCancels)
		}
		if stats.PortfolioRacers > 0 {
			sp.Set("portfolio_racers", stats.PortfolioRacers)
			sp.Set("portfolio_winner", stats.PortfolioWinner)
			sp.Set("portfolio_losers_cancelled", stats.PortfolioLosersCancelled)
		}
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	return root, stats, err
}

// compileFormula is Compile without the tracing shim.
func compileFormula(ctx context.Context, f *cnf.Formula, opts Options) (*Node, Stats, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		// An already-cancelled caller gets its error immediately — the
		// periodic in-search budget check samples only every 8 steps,
		// which could let a tiny compile slip through complete.
		return nil, Stats{}, err
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	clauses := make([]cnf.Clause, 0, len(f.Clauses))
	for _, cl := range f.Clauses {
		norm, taut := normalizeClause(cl)
		if taut {
			continue
		}
		if len(norm) == 0 {
			b := NewBuilder()
			return b.False(), Stats{Nodes: b.NumNodes(), Elapsed: time.Since(start)}, nil
		}
		clauses = append(clauses, norm)
	}
	var signature string
	var toCanon map[int]int
	if opts.Cache != nil {
		if opts.NoCanonicalCache {
			signature = formulaSignature(clauses, f, opts)
		} else {
			// Canonicalization honors the same budget as the compilation
			// proper, so a pathological labeling cannot outlive the
			// caller's deadline or ignore cancellation.
			budget := func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return ErrTimeout
				}
				return nil
			}
			var canonKey string
			var err error
			toCanon, canonKey, err = canonicalForm(clauses, func(v int) bool { return f.Aux[v] }, budget)
			if err != nil {
				return nil, Stats{Elapsed: time.Since(start)}, err
			}
			signature = canonicalSignature(canonKey, toCanon, f, opts)
		}
		// Single-flight loop: serve a hit, or become the leader and
		// compile, or wait for the in-flight leader and re-check. Waiters
		// of a failed leader contend to lead the next round, so duplicate
		// formulas compiled concurrently still pay for one compilation.
		for {
			if entry, ok := opts.Cache.get(signature); ok {
				if opts.MaxNodes > 0 && entry.nodes > opts.MaxNodes {
					// The node budget models memory exhaustion; comparing
					// against the original compilation's allocation count
					// makes a warm hit fail exactly where a cold compile
					// would, independent of cache warmth.
					return nil, Stats{Elapsed: time.Since(start)}, ErrNodeBudget
				}
				root, renamed, ok := rebindCached(entry, toCanon)
				if !ok {
					// The stored renaming does not line up with this
					// caller's (it can only happen after a hash-collision
					// canonicalization defect); compile fresh rather than
					// serve a miswired circuit.
					break
				}
				if renamed {
					opts.Cache.noteRenamed()
				}
				stats := Stats{Elapsed: time.Since(start)}
				stats.CrossCallHit = true
				stats.RenamedHit = renamed
				stats.Nodes = entry.nodes
				return root, stats, nil
			}
			leader, wait := opts.Cache.acquire(signature)
			if leader {
				defer opts.Cache.release(signature)
				break
			}
			wait()
		}
	}
	var root *Node
	var stats Stats
	var err error
	if orders := portfolioOrders(opts); len(orders) > 1 {
		root, stats, err = racePortfolio(ctx, clauses, opts, orders, start)
	} else {
		c := newCompiler(opts, start)
		root, err = c.compileRoot(ctx, clauses)
		stats = c.snapshot(start)
	}
	recordGlobalCounters(stats)
	if err != nil {
		return nil, stats, err
	}
	if opts.Cache != nil {
		opts.Cache.put(signature, root, stats.Nodes, invertRenaming(toCanon), f.OriginalVars(), opts.CacheOwner)
	}
	return root, stats, nil
}

// rebindCached maps a cache entry's circuit into the caller's variable
// space. Byte-identical entries (fromCanon == nil) are returned as-is;
// canonical entries are relabeled through canon unless the composite
// renaming is the identity. The final return is false when the two
// renamings are inconsistent — a sign the entry must not be served.
func rebindCached(entry *cacheEntry, toCanon map[int]int) (root *Node, renamed, ok bool) {
	if entry.fromCanon == nil {
		return entry.root, false, true
	}
	if len(entry.fromCanon) != len(toCanon) {
		return nil, false, false
	}
	fromCanon := invertRenaming(toCanon)
	m := make(map[int]int, len(entry.fromCanon))
	identity := true
	for canon, cachedVar := range entry.fromCanon {
		callerVar, exists := fromCanon[canon]
		if !exists {
			return nil, false, false
		}
		m[cachedVar] = callerVar
		if cachedVar != callerVar {
			identity = false
		}
	}
	if identity {
		return entry.root, false, true
	}
	return Relabel(NewBuilder(), entry.root, m), true, true
}

// invertRenaming flips a var→canon map into canon→var; nil stays nil.
func invertRenaming(toCanon map[int]int) map[int]int {
	if toCanon == nil {
		return nil
	}
	out := make(map[int]int, len(toCanon))
	for v, canon := range toCanon {
		out[canon] = v
	}
	return out
}

// normalizeClause sorts literals, removes duplicates, and detects
// tautologies (clauses containing both v and ¬v). Clauses that are already
// strictly sorted and duplicate-free — the common case for clauses that
// round-trip through the parser or arrive pre-normalized — are returned
// as-is, without copying.
func normalizeClause(cl cnf.Clause) (cnf.Clause, bool) {
	clean := true
	for i := 1; i < len(cl); i++ {
		prev, cur := cl[i-1], cl[i]
		pv, cv := prev.Var(), cur.Var()
		if pv < cv {
			continue
		}
		if pv == cv && prev == -cur {
			// Both polarities of one variable: a tautology no matter how
			// the rest of the clause is ordered.
			return nil, true
		}
		clean = false
		break
	}
	if clean {
		return cl, false
	}
	out := make(cnf.Clause, len(cl))
	copy(out, cl)
	sort.Slice(out, func(i, j int) bool {
		vi, vj := out[i].Var(), out[j].Var()
		if vi != vj {
			return vi < vj
		}
		return out[i] < out[j]
	})
	w := 0
	for i, l := range out {
		if i > 0 && out[w-1] == l {
			continue
		}
		if i > 0 && out[w-1] == -l {
			return nil, true
		}
		out[w] = l
		w++
	}
	return out[:w], false
}

// checkBudget runs at every compile step. Every 8th step it also checks ctx
// and the deadline and yields the processor. The compiler never blocks, and
// at GOMAXPROCS ≤ 3 the garbage collector has no dedicated mark worker: its
// fractional worker runs only when a processor reschedules. Without the
// yield, a collection that starts mid-compile waits for the scheduler's
// 10 ms preemption while the compiler keeps allocating, and the heap grows
// several megabytes past its goal. Steps on large clause sets take up to
// milliseconds, hence the short period.
func (c *compiler) checkBudget(ctx context.Context) error {
	if c.steps.Add(1)%8 == 0 {
		runtime.Gosched()
		if err := ctx.Err(); err != nil {
			return err
		}
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			return ErrTimeout
		}
	}
	if c.opts.MaxNodes > 0 && c.b.NumNodes() > c.opts.MaxNodes {
		return ErrNodeBudget
	}
	return nil
}

// parallelSpawnDepth caps how deep in the decision recursion component
// fan-out and speculative branching may still spawn goroutines: past it,
// subproblems are small enough that handoff overhead dominates, even when
// the clause-count floor passes.
const parallelSpawnDepth = 32

// compile compiles a set of normalized clauses (no duplicates or
// tautologies) into a d-DNNF node. depth counts Shannon decisions above this
// call and gates the parallel fan-out. counts, when non-nil, is owned by
// this call and reflects exactly the given clause set; it is maintained
// through propagation and conditioning for the dynamic branching heuristic.
func (c *compiler) compile(ctx context.Context, clauses []cnf.Clause, depth int, counts *occCounts) (*Node, error) {
	if err := c.checkBudget(ctx); err != nil {
		return nil, err
	}

	// Unit propagation.
	units, rest, conflict := propagate(clauses, counts)
	c.propagations.Add(int64(len(units)))
	if conflict {
		return c.b.False(), nil
	}
	unitNodes := make([]*Node, 0, len(units)+2)
	for _, l := range units {
		unitNodes = append(unitNodes, c.b.Lit(int(l)))
	}
	if len(rest) == 0 {
		return c.b.And(unitNodes...), nil
	}

	// Connected-component decomposition.
	comps := components(rest)
	if len(comps) > 1 {
		c.components.Add(1)
	}
	nodes, err := c.compileComponents(ctx, comps, depth, counts)
	if err != nil {
		return nil, err
	}
	return c.b.And(append(unitNodes, nodes...)...), nil
}

// componentCounts returns the occurrence counts to hand a component of a
// split. A single component inherits the caller's counts wholesale (every
// occurrence it tracks belongs to that component); a multi-way split
// rebuilds per-component counts — the split already paid a pass over each
// component's clauses, and fresh maps keep downstream branch clones small.
func componentCounts(comps [][]cnf.Clause, i int, counts *occCounts) *occCounts {
	if counts == nil {
		return nil
	}
	if len(comps) == 1 {
		return counts
	}
	return newOccCounts(comps[i])
}

// compileComponents compiles each component, fanning them out across the
// spawn budget when one is configured. Components are independent
// subproblems (disjoint variables), so any interleaving builds the same
// hash-consed nodes; results are assembled in component order either way.
func (c *compiler) compileComponents(ctx context.Context, comps [][]cnf.Clause, depth int, counts *occCounts) ([]*Node, error) {
	nodes := make([]*Node, len(comps))
	if c.limit == nil || len(comps) == 1 || depth > parallelSpawnDepth {
		for i, comp := range comps {
			n, err := c.compileComponent(ctx, comp, depth, componentCounts(comps, i, counts))
			if err != nil {
				return nil, err
			}
			nodes[i] = n
		}
		return nodes, nil
	}
	errs := make([]error, len(comps))
	var wg sync.WaitGroup
	for i := 1; i < len(comps); i++ {
		i := i
		cnt := componentCounts(comps, i, counts)
		if len(comps[i]) >= parallelComponentFloor &&
			c.limit.Go(&wg, func() { nodes[i], errs[i] = c.compileComponent(ctx, comps[i], depth, cnt) }) {
			continue
		}
		nodes[i], errs[i] = c.compileComponent(ctx, comps[i], depth, cnt)
	}
	// The current goroutine takes the first component itself — with no spare
	// tokens the whole loop degenerates to the sequential order shifted by
	// one, and with tokens it overlaps with the spawned workers.
	nodes[0], errs[0] = c.compileComponent(ctx, comps[0], depth, componentCounts(comps, 0, counts))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// compileComponent compiles a single connected component, consulting the
// component cache. counts is owned by this call (branches clone or inherit
// it) and may be nil when the heuristic does not consume counts.
func (c *compiler) compileComponent(ctx context.Context, clauses []cnf.Clause, depth int, counts *occCounts) (*Node, error) {
	var key string
	if !c.opts.DisableCache {
		key = cacheKey(clauses)
		c.cacheMu.RLock()
		n := c.cache[key]
		c.cacheMu.RUnlock()
		if n != nil {
			c.cacheHits.Add(1)
			return n, nil
		}
		// Concurrent workers may both miss the same component and compile
		// it twice; the builder's hash-consing collapses the duplicates to
		// one node, so the only cost is the redundant search effort.
		c.cacheMisses.Add(1)
	}

	v := c.pickVar(clauses, counts)
	c.decisions.Add(1)

	// The hi branch gets a clone of the counts; the lo branch inherits the
	// original (it is compiled last on the sequential path and owns its
	// copy exclusively on the speculative one). Conditioning itself is pure
	// on the clause slices, so computing both cofactors up front changes
	// nothing about the sequential compiler's node allocation order.
	hiCounts := counts.clone()
	loCounts := counts
	hiClauses, hiEmpty := assign(clauses, cnf.Lit(v), hiCounts)
	loClauses, loEmpty := assign(clauses, cnf.Lit(-v), loCounts)

	var hi, lo *Node
	var err error
	speculated := false
	if c.opts.Speculate && c.limit != nil && depth <= parallelSpawnDepth &&
		!hiEmpty && !loEmpty && len(clauses) >= speculateClauseFloor {
		// Both cofactors carry real work: try to compile them concurrently.
		// An unsatisfiable-at-assignment cofactor never reaches this point,
		// so a speculated sibling is never trivially wasted.
		hi, lo, speculated, err = c.speculateBranches(ctx, hiClauses, loClauses, hiCounts, loCounts, depth)
		if err != nil {
			return nil, err
		}
	}
	if !speculated {
		if hiEmpty {
			hi = c.b.False()
		} else if hi, err = c.compile(ctx, hiClauses, depth+1, hiCounts); err != nil {
			return nil, err
		}
		if loEmpty {
			lo = c.b.False()
		} else if lo, err = c.compile(ctx, loClauses, depth+1, loCounts); err != nil {
			return nil, err
		}
	}

	n := c.b.Decision(v, hi, lo)
	if !c.opts.DisableCache {
		c.cacheMu.Lock()
		c.cache[key] = n
		c.cacheMu.Unlock()
	}
	return n, nil
}

// speculateBranches compiles the two cofactors of a Shannon decision
// concurrently when a spawn token is idle: the hi cofactor on a fresh
// goroutine, the lo cofactor on the calling one. The cofactors are variable-
// disjoint subproblems of the same component split by the decision variable,
// so they are independent by construction; node and step budgets are
// accounted on the compiler's shared atomics, which keeps MaxNodes semantics
// identical to the sequential order. A branch that fails cancels the branch
// context so its in-flight sibling aborts at its next budget check instead
// of running to completion. ok == false means no token was idle and nothing
// ran — the caller falls back to sequential compilation.
func (c *compiler) speculateBranches(ctx context.Context, hiClauses, loClauses []cnf.Clause, hiCounts, loCounts *occCounts, depth int) (hi, lo *Node, ok bool, err error) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var hiErr, loErr error
	if !c.limit.Go(&wg, func() {
		if hi, hiErr = c.compile(bctx, hiClauses, depth+1, hiCounts); hiErr != nil {
			cancel()
		}
	}) {
		return nil, nil, false, nil
	}
	c.speculated.Add(1)
	if lo, loErr = c.compile(bctx, loClauses, depth+1, loCounts); loErr != nil {
		cancel()
	}
	wg.Wait()
	return hi, lo, true, c.reconcileBranchErrs(ctx, hiErr, loErr)
}

// reconcileBranchErrs folds the two speculative branch outcomes into the
// error the sequential compiler would have reported. The caller's own
// cancellation wins outright; otherwise a branch's context.Canceled can only
// be sibling-induced (the branch context is cancelled exactly when a branch
// fails), so the sibling's real budget error — ErrNodeBudget, ErrTimeout —
// is surfaced instead of the induced cancellation.
func (c *compiler) reconcileBranchErrs(ctx context.Context, hiErr, loErr error) error {
	if hiErr == nil && loErr == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if errors.Is(hiErr, context.Canceled) || errors.Is(loErr, context.Canceled) {
		c.specCancels.Add(1)
	}
	for _, err := range []error{hiErr, loErr} {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if hiErr != nil {
		return hiErr
	}
	return loErr
}

// pickVar selects the branching variable per the configured heuristic.
// counts, when non-nil, is the incrementally maintained occurrence count of
// every variable in the clause set (see occCounts); the most-frequent
// heuristic consumes it and falls back to recomputation without it.
func (c *compiler) pickVar(clauses []cnf.Clause, counts *occCounts) int {
	switch c.opts.Order {
	case OrderLexicographic:
		best := 0
		for _, cl := range clauses {
			for _, l := range cl {
				if v := l.Var(); best == 0 || v < best {
					best = v
				}
			}
		}
		return best
	case OrderJeroslowWang:
		return pickJeroslowWang(clauses)
	default:
		if counts != nil {
			return counts.pickMostFrequent(clauses)
		}
		return pickMostFrequentRecompute(clauses)
	}
}

// pickMostFrequentRecompute is the from-scratch most-frequent heuristic: a
// full occurrence-count rebuild per decision. Kept as the counts == nil
// fallback and as the oracle the incremental occCounts implementation is
// agreement-tested against.
func pickMostFrequentRecompute(clauses []cnf.Clause) int {
	counts := make(map[int]int)
	for _, cl := range clauses {
		for _, l := range cl {
			counts[l.Var()]++
		}
	}
	best, bestCount := 0, -1
	for v, n := range counts {
		if n > bestCount || (n == bestCount && v < best) {
			best, bestCount = v, n
		}
	}
	return best
}

// pickJeroslowWang scores every variable by the two-sided Jeroslow–Wang
// measure Σ 2^-|cl| over the clauses mentioning it and returns the maximum,
// ties broken by the smaller variable. Scores are sums of dyadic rationals
// accumulated in deterministic clause order, so the choice is reproducible.
func pickJeroslowWang(clauses []cnf.Clause) int {
	scores := make(map[int]float64)
	for _, cl := range clauses {
		w := 1.0
		for i := 0; i < len(cl) && i < 62; i++ {
			w /= 2
		}
		for _, l := range cl {
			scores[l.Var()] += w
		}
	}
	best, bestScore := 0, -1.0
	for v, s := range scores {
		if s > bestScore || (s == bestScore && v < best) {
			best, bestScore = v, s
		}
	}
	return best
}

// propagate performs exhaustive unit propagation. It returns the implied
// literals, the residual clauses (each with ≥2 literals, mentioning no
// assigned variable), and whether a conflict was derived. counts, when
// non-nil, is maintained to reflect the residual clause set (its contents
// are unspecified when a conflict is reported — the branch is dead).
func propagate(clauses []cnf.Clause, counts *occCounts) (units []cnf.Lit, rest []cnf.Clause, conflict bool) {
	var assignment map[int]bool
	var pending []cnf.Lit
	work := clauses
	for {
		pending = pending[:0]
		for _, cl := range work {
			if len(cl) == 1 {
				pending = append(pending, cl[0])
			}
		}
		if len(pending) == 0 {
			break
		}
		if assignment == nil {
			assignment = make(map[int]bool, len(pending))
		}
		for _, l := range pending {
			v := l.Var()
			want := l.Positive()
			if have, ok := assignment[v]; ok {
				if have != want {
					return nil, nil, true
				}
				continue
			}
			assignment[v] = want
			units = append(units, l)
		}
		next := make([]cnf.Clause, 0, len(work))
		for _, cl := range work {
			reduced, sat, empty := reduce(cl, assignment, counts)
			if sat {
				continue
			}
			if empty {
				return nil, nil, true
			}
			next = append(next, reduced)
		}
		work = next
	}
	return units, work, false
}

// reduce simplifies a clause under a partial assignment, maintaining counts:
// a satisfied clause leaves the residual set wholesale, a falsified literal
// is struck from its clause. A clause mentioning no assigned variable is
// returned as is; clauses are never mutated, so sharing it is safe.
func reduce(cl cnf.Clause, assignment map[int]bool, counts *occCounts) (out cnf.Clause, sat, empty bool) {
	struck := 0
	for _, l := range cl {
		val, ok := assignment[l.Var()]
		if !ok {
			continue
		}
		if val == l.Positive() {
			counts.removeClause(cl)
			return nil, true, false
		}
		struck++
	}
	if struck == 0 {
		return cl, false, false
	}
	keep := make(cnf.Clause, 0, len(cl)-struck)
	for _, l := range cl {
		if _, ok := assignment[l.Var()]; ok {
			counts.removeLit(l.Var())
		} else {
			keep = append(keep, l)
		}
	}
	if len(keep) == 0 {
		return nil, false, true
	}
	return keep, false, false
}

// assign simplifies the clauses under a single literal assignment. It
// returns the residual clauses and whether an empty clause was derived.
// counts, when non-nil, is maintained to reflect the residual (unspecified
// after an empty-clause derivation — the branch is dead).
func assign(clauses []cnf.Clause, l cnf.Lit, counts *occCounts) ([]cnf.Clause, bool) {
	out := make([]cnf.Clause, 0, len(clauses))
	for _, cl := range clauses {
		sat := false
		removed := false
		for _, m := range cl {
			if m == l {
				sat = true
				break
			}
			if m == -l {
				removed = true
			}
		}
		if sat {
			counts.removeClause(cl)
			continue
		}
		if !removed {
			out = append(out, cl)
			continue
		}
		counts.removeLit(l.Var())
		keep := make(cnf.Clause, 0, len(cl)-1)
		for _, m := range cl {
			if m != -l {
				keep = append(keep, m)
			}
		}
		if len(keep) == 0 {
			return nil, true
		}
		out = append(out, keep)
	}
	return out, false
}

// components partitions clauses into connected components of the
// clause-variable incidence graph, using union-find over variables. The
// components come in ascending order of their representative variable, each
// keeping the clauses' relative order; a clause set that is one component
// is returned as is.
func components(clauses []cnf.Clause) [][]cnf.Clause {
	// Number the distinct variables densely, in ascending order, so the
	// union-find runs on slices and ascending roots need no sort.
	lits := 0
	for _, cl := range clauses {
		lits += len(cl)
	}
	vars := make([]int, 0, lits)
	for _, cl := range clauses {
		for _, l := range cl {
			vars = append(vars, l.Var())
		}
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	index := func(l cnf.Lit) int32 {
		i, _ := slices.BinarySearch(vars, l.Var())
		return int32(i)
	}
	parent := make([]int32, len(vars))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, cl := range clauses {
		a := index(cl[0])
		for _, l := range cl[1:] {
			ra, rb := find(a), find(index(l))
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	root := make([]int32, len(clauses))
	size := make([]int, len(vars)) // clauses per root
	groups := 0
	for i, cl := range clauses {
		r := find(index(cl[0]))
		root[i] = r
		if size[r] == 0 {
			groups++
		}
		size[r]++
	}
	if groups == 1 {
		return [][]cnf.Clause{clauses}
	}
	pos := make([]int, len(vars)) // root → index of its component in out
	out := make([][]cnf.Clause, 0, groups)
	for r, n := range size {
		if n > 0 {
			pos[r] = len(out)
			out = append(out, make([]cnf.Clause, 0, n))
		}
	}
	for i, cl := range clauses {
		g := pos[root[i]]
		out[g] = append(out[g], cl)
	}
	return out
}

// TopLevelComponents reports how many connected components the formula's
// normalized clause set splits into before any propagation — the number of
// independent subproblems the parallel compiler can fan out immediately.
func TopLevelComponents(f *cnf.Formula) int {
	clauses := make([]cnf.Clause, 0, len(f.Clauses))
	for _, cl := range f.Clauses {
		norm, taut := normalizeClause(cl)
		if taut || len(norm) == 0 {
			continue
		}
		clauses = append(clauses, norm)
	}
	return len(components(clauses))
}

// cacheKey renders a clause set canonically. Clauses are assumed
// literal-sorted (normalizeClause sorts them and all simplifications
// preserve relative order).
func cacheKey(clauses []cnf.Clause) string {
	strs := make([]string, len(clauses))
	var buf []byte
	for i, cl := range clauses {
		buf = buf[:0]
		for _, l := range cl {
			buf = strconv.AppendInt(buf, int64(l), 10)
			buf = append(buf, ' ')
		}
		strs[i] = string(buf)
	}
	sort.Strings(strs)
	return strings.Join(strs, ";")
}
