package dnnf

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/parallel"
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
	// The first racer to finish wins: its circuit is returned and the
	// losers are cancelled via context. Requires Workers ≥ 2 to engage;
	// with Workers == 1 compilation is byte-identical to the sequential
	// compiler. MaxNodes bounds each racer's builder: the compilation fails
	// with ErrNodeBudget only when every racer exhausts it.
	Portfolio bool
}

// Stats reports compilation effort.
type Stats struct {
	Decisions    int
	Propagations int
	CacheHits    int
	CacheMisses  int
	Components   int
	Nodes        int
	// CheckedNodes is the builder's node count at the last MaxNodes check.
	// The sequential compiler fails a MaxNodes below it and meets one at
	// or above it; Nodes, which also counts the nodes built after that
	// check, can exceed it by a few.
	CheckedNodes int
	Elapsed      time.Duration
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
	out := fmt.Sprintf("decisions=%d props=%d cacheHits=%d cacheMisses=%d components=%d nodes=%d elapsed=%v",
		s.Decisions, s.Propagations, s.CacheHits, s.CacheMisses, s.Components, s.Nodes, s.Elapsed)
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

	// cache is the component cache; nil when Options.DisableCache is set.
	cache *componentCache

	decisions    atomic.Int64
	propagations atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	components   atomic.Int64
	steps        atomic.Int64
	checked      atomic.Int64
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
		limit: parallel.NewLimit(parallel.Workers(opts.Workers) - 1),
	}
	if !opts.DisableCache {
		c.cache = newComponentCache()
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
		CheckedNodes:        int(c.checked.Load()),
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
// ErrTimeout); ctx errors are returned as-is. Compile opens no span: the
// caller's "compile" stage reports the returned Stats.
func Compile(ctx context.Context, f *cnf.Formula, opts Options) (*Node, Stats, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		// An already-cancelled caller gets its error immediately — the
		// periodic in-search budget check samples only every 8 steps,
		// which could let a tiny compile slip through complete.
		return nil, Stats{}, err
	}
	clauses := normalizeClauses(f.Clauses)
	for _, cl := range clauses {
		if len(cl) == 0 {
			b := NewBuilder()
			return b.False(), Stats{Nodes: b.NumNodes(), Elapsed: time.Since(start)}, nil
		}
	}
	var root *Node
	var stats Stats
	var err error
	dense, orig := clauses, renumber(clauses)
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
	return root, stats, nil
}

// normalizeClause sorts literals, removes duplicates, and detects
// tautologies (clauses containing both v and ¬v). Clauses that are already
// strictly sorted and duplicate-free — the common case for clauses that
// round-trip through the parser or arrive pre-normalized — are returned
// as-is, without copying.
func normalizeClause(cl cnf.Clause) (cnf.Clause, bool) {
	clean, taut := sortedClause(cl)
	if clean || taut {
		return cl, taut
	}
	return normalizeInPlace(slices.Clone(cl))
}

// normalizeClauses normalizes every clause as normalizeClause does and drops
// the tautologies, copying all of them into one backing array, where the
// unsorted ones are sorted in place.
func normalizeClauses(cls []cnf.Clause) []cnf.Clause {
	lits := 0
	for _, cl := range cls {
		lits += len(cl)
	}
	backing := make([]cnf.Lit, lits)
	out := make([]cnf.Clause, 0, len(cls))
	for _, cl := range cls {
		n := copy(backing, cl)
		norm, taut := normalizeInPlace(backing[:n:n])
		backing = backing[n:]
		if !taut {
			out = append(out, norm)
		}
	}
	return out
}

// sortedClause reports whether cl is strictly sorted by variable, and
// whether the scan found both polarities of one variable side by side.
func sortedClause(cl cnf.Clause) (clean, taut bool) {
	for i := 1; i < len(cl); i++ {
		prev, cur := cl[i-1], cl[i]
		pv, cv := prev.Var(), cur.Var()
		if pv < cv {
			continue
		}
		// Both polarities of one variable: a tautology no matter how the
		// rest of the clause is ordered.
		return false, pv == cv && prev == -cur
	}
	return true, false
}

// normalizeInPlace is normalizeClause reordering cl itself: it returns a
// prefix of cl.
func normalizeInPlace(cl cnf.Clause) (cnf.Clause, bool) {
	clean, taut := sortedClause(cl)
	if clean || taut {
		return cl, taut
	}
	slices.SortFunc(cl, func(a, b cnf.Lit) int {
		if c := cmp.Compare(a.Var(), b.Var()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	w := 0
	for i, l := range cl {
		if i > 0 && cl[w-1] == l {
			continue
		}
		if i > 0 && cl[w-1] == -l {
			return nil, true
		}
		cl[w] = l
		w++
	}
	return cl[:w], false
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
	n := c.b.NumNodes()
	c.checked.Store(int64(n))
	if c.opts.MaxNodes > 0 && n > c.opts.MaxNodes {
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
// component cache. A lookup hashes the clauses where they lie and compares
// them in s, so a hit allocates nothing; only a miss encodes the clauses,
// in the order they came, for its cache entry.
func (c *compiler) compileComponent(ctx context.Context, s *scratch, clauses []cnf.Clause, depth int) (*Node, error) {
	var h uint64
	if c.cache != nil {
		h = hashClauses(clauses)
		if n := c.cache.lookup(s, h, clauses); n != nil {
			c.cacheHits.Add(1)
			return n, nil
		}
		// Concurrent workers may both miss the same component and compile
		// it twice; the builder's hash-consing collapses the duplicates to
		// one node, so the only cost is the redundant search effort.
		c.cacheMisses.Add(1)
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
	if c.cache != nil {
		s.buf = appendClauseSet(s.buf[:0], clauses)
		c.cache.store(h, slices.Clone(s.buf), n)
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
