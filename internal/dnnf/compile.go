package dnnf

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
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
// goroutines at once; each of those goroutines works in its own scratch.
type compiler struct {
	b        *Builder
	opts     Options
	deadline time.Time
	// limit is the spawn budget shared by component fan-out and speculative
	// decision branching; nil means the fully sequential compiler.
	limit *parallel.Limit
	// orig maps the recursion's dense variables back to the formula's (see
	// densify); nodes are built on the formula's variables.
	orig []int

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

// newCompiler builds a compiler for one (possibly racing) compilation of a
// densified clause set whose variables orig maps back. start anchors the
// deadline so portfolio racers share one clock.
func newCompiler(opts Options, orig []int, start time.Time) *compiler {
	c := &compiler{
		b:     NewBuilder(),
		opts:  opts,
		orig:  orig,
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

// lit builds the leaf of a dense literal, on the formula's variable.
func (c *compiler) lit(l cnf.Lit) *Node {
	v := c.orig[l.Var()]
	if l < 0 {
		v = -v
	}
	return c.b.Lit(v)
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
	dense, orig := densify(clauses)
	if orders := portfolioOrders(opts); len(orders) > 1 {
		root, stats, err = racePortfolio(ctx, dense, orig, opts, orders, start)
	} else {
		c := newCompiler(opts, orig, start)
		root, err = c.compile(ctx, newScratch(orig), dense, 0)
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
// tautologies) over dense variables into a d-DNNF node, working in s.
// depth counts Shannon decisions above this call and gates the parallel
// fan-out.
func (c *compiler) compile(ctx context.Context, s *scratch, clauses []cnf.Clause, depth int) (*Node, error) {
	if err := c.checkBudget(ctx); err != nil {
		return nil, err
	}
	defer s.release(s.mark())

	// Unit propagation.
	units, rest, conflict := s.propagate(clauses)
	c.propagations.Add(int64(len(units)))
	if conflict {
		return c.b.False(), nil
	}
	if len(rest) == 0 {
		children := s.nodes.alloc(len(units))
		for _, l := range units {
			children = append(children, c.lit(l))
		}
		return c.b.And(children...), nil
	}

	// Connected-component decomposition.
	comps := s.components(rest)
	if len(comps) > 1 {
		c.components.Add(1)
	}
	children := s.nodes.alloc(len(units) + len(comps))[:len(units)+len(comps)]
	for i, l := range units {
		children[i] = c.lit(l)
	}
	if err := c.compileComponents(ctx, s, comps, children[len(units):], depth); err != nil {
		return nil, err
	}
	return c.b.And(children...), nil
}

// compileComponents compiles each component into the matching entry of
// nodes, fanning them out across the spawn budget when one is configured.
// Components are independent subproblems (disjoint variables), so any
// interleaving builds the same hash-consed nodes; results are assembled in
// component order either way.
func (c *compiler) compileComponents(ctx context.Context, s *scratch, comps [][]cnf.Clause, nodes []*Node, depth int) error {
	if c.limit == nil || len(comps) == 1 || depth > parallelSpawnDepth {
		for i, comp := range comps {
			n, err := c.compileComponent(ctx, s, comp, depth)
			if err != nil {
				return err
			}
			nodes[i] = n
		}
		return nil
	}
	errs := make([]error, len(comps))
	var wg sync.WaitGroup
	for i := 1; i < len(comps); i++ {
		if len(comps[i]) >= parallelComponentFloor &&
			c.limit.Go(&wg, func() {
				nodes[i], errs[i] = c.compileComponent(ctx, newScratch(c.orig), comps[i], depth)
			}) {
			continue
		}
		nodes[i], errs[i] = c.compileComponent(ctx, s, comps[i], depth)
	}
	// The current goroutine takes the first component itself — with no spare
	// tokens the whole loop degenerates to the sequential order shifted by
	// one, and with tokens it overlaps with the spawned workers.
	nodes[0], errs[0] = c.compileComponent(ctx, s, comps[0], depth)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compileComponent compiles a single connected component, consulting the
// component cache. A hit looks the key up in s's buffer and allocates
// nothing; only a miss copies the key for its cache entry.
func (c *compiler) compileComponent(ctx context.Context, s *scratch, clauses []cnf.Clause, depth int) (*Node, error) {
	var key string
	if !c.opts.DisableCache {
		k := s.key(clauses)
		c.cacheMu.RLock()
		n := c.cache[string(k)]
		c.cacheMu.RUnlock()
		if n != nil {
			c.cacheHits.Add(1)
			return n, nil
		}
		// Concurrent workers may both miss the same component and compile
		// it twice; the builder's hash-consing collapses the duplicates to
		// one node, so the only cost is the redundant search effort.
		c.cacheMisses.Add(1)
		key = string(k)
	}

	v := s.pickVar(c.opts.Order, clauses)
	c.decisions.Add(1)

	var hi, lo *Node
	var err error
	speculated := false
	if c.opts.Speculate && c.limit != nil && depth <= parallelSpawnDepth &&
		len(clauses) >= speculateClauseFloor {
		// Both cofactors carry real work: after propagation the component
		// has no unit clause, so neither is unsatisfiable at assignment.
		hi, lo, speculated, err = c.speculateBranches(ctx, s, clauses, v, depth)
		if err != nil {
			return nil, err
		}
	}
	if !speculated {
		if hi, err = c.cofactor(ctx, s, clauses, cnf.Lit(v), depth); err != nil {
			return nil, err
		}
		if lo, err = c.cofactor(ctx, s, clauses, cnf.Lit(-v), depth); err != nil {
			return nil, err
		}
	}

	n := c.b.Decision(c.orig[v], hi, lo)
	if !c.opts.DisableCache {
		c.cacheMu.Lock()
		c.cache[key] = n
		c.cacheMu.Unlock()
	}
	return n, nil
}

// cofactor compiles the clauses conditioned on l, working in s. The
// conditioned clause set lives on s's stacks only while it compiles, so a
// decision holds one cofactor's clauses at a time. Conditioning builds no
// node, so deriving each cofactor just before it compiles leaves the
// sequential compiler's node allocation order unchanged.
func (c *compiler) cofactor(ctx context.Context, s *scratch, clauses []cnf.Clause, l cnf.Lit, depth int) (*Node, error) {
	defer s.release(s.mark())
	conditioned, empty := s.assign(clauses, l)
	if empty {
		return c.b.False(), nil
	}
	return c.compile(ctx, s, conditioned, depth+1)
}

// speculateBranches compiles the two cofactors of decision variable v
// concurrently when a spawn token is idle: the hi cofactor on a fresh
// goroutine, the lo cofactor on the calling one. The cofactors are variable-
// disjoint subproblems of the same component split by the decision variable,
// so they are independent by construction; node and step budgets are
// accounted on the compiler's shared atomics, which keeps MaxNodes semantics
// identical to the sequential order. A branch that fails cancels the branch
// context so its in-flight sibling aborts at its next budget check instead
// of running to completion. ok == false means no token was idle and nothing
// ran — the caller falls back to sequential compilation. The spawned branch
// works in a scratch of its own; the calling one keeps s.
func (c *compiler) speculateBranches(ctx context.Context, s *scratch, clauses []cnf.Clause, v, depth int) (hi, lo *Node, ok bool, err error) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var hiErr, loErr error
	if !c.limit.Go(&wg, func() {
		if hi, hiErr = c.cofactor(bctx, newScratch(c.orig), clauses, cnf.Lit(v), depth); hiErr != nil {
			cancel()
		}
	}) {
		return nil, nil, false, nil
	}
	c.speculated.Add(1)
	if lo, loErr = c.cofactor(bctx, s, clauses, cnf.Lit(-v), depth); loErr != nil {
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
