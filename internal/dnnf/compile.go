package dnnf

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
)

// Compilation errors. A compilation that exceeds its time or size budget
// fails with one of these; the hybrid strategy of Section 6.3 falls back to
// CNF Proxy on such failures, mirroring the paper's out-of-memory and
// timeout failures of c2d.
var (
	ErrTimeout    = errors.New("dnnf: compilation timed out")
	ErrNodeBudget = errors.New("dnnf: compilation exceeded node budget")
)

// Options configures compilation.
type Options struct {
	// Timeout bounds wall-clock compilation time; zero means no limit.
	Timeout time.Duration
	// MaxNodes bounds the number of d-DNNF nodes allocated; zero means no
	// limit. This plays the role of c2d running out of memory.
	MaxNodes int
	// DisableCache turns off component caching: the cache-off compile is
	// the reference that the cached one is checked against.
	DisableCache bool
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
}

func (s Stats) String() string {
	return fmt.Sprintf("decisions=%d props=%d cacheHits=%d cacheMisses=%d components=%d nodes=%d elapsed=%v",
		s.Decisions, s.Propagations, s.CacheHits, s.CacheMisses, s.Components, s.Nodes, s.Elapsed)
}

// compilations counts Compile calls that searched, for the process-wide
// repro_compilations_total series; it is the one counter that compilations
// on different goroutines share.
var compilations atomic.Int64

// Compilations returns how many Compile calls in this process have run the
// search, whether they succeeded or failed a budget.
func Compilations() int64 { return compilations.Load() }

// compiler carries the state of one compilation. One goroutine runs the
// whole recursion, in one scratch.
type compiler struct {
	b        *Builder
	opts     Options
	deadline time.Time
	// orig maps the recursion's dense variables back to the formula's (see
	// renumber); nodes are built on the formula's variables.
	orig []int

	// cache is the component cache; nil when Options.DisableCache is set.
	cache *componentCache

	// stats accumulates the effort counters; steps counts budget checks.
	stats Stats
	steps int
}

// newCompiler builds a compiler for one compilation, started at start, of
// a densified clause set whose variables orig maps back.
func newCompiler(opts Options, orig []int, start time.Time) *compiler {
	c := &compiler{b: NewBuilder(), opts: opts, orig: orig}
	if !opts.DisableCache {
		c.cache = newComponentCache()
	}
	if opts.Timeout > 0 {
		c.deadline = start.Add(opts.Timeout)
	}
	return c
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
// dsharp. A decision branches on a variable f.Aux marks only in a component
// that mentions no other (see pickVar). The context carries external
// cancellation (distinct from Options.Timeout, which is this compilation's
// own budget and yields ErrTimeout); ctx errors are returned as-is. Compile
// opens no span: the caller's "compile" stage reports the returned Stats.
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
	orig := renumber(clauses)
	c := newCompiler(opts, orig, start)
	root, err := c.compile(ctx, newScratch(orig, f.Aux), clauses)
	compilations.Add(1)
	stats := c.stats
	stats.Nodes, stats.Elapsed = c.b.NumNodes(), time.Since(start)
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
	if c.steps++; c.steps%8 == 0 {
		runtime.Gosched()
		if err := ctx.Err(); err != nil {
			return err
		}
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			return ErrTimeout
		}
	}
	n := c.b.NumNodes()
	c.stats.CheckedNodes = n
	if c.opts.MaxNodes > 0 && n > c.opts.MaxNodes {
		return ErrNodeBudget
	}
	return nil
}

// compile compiles a set of normalized clauses (no duplicates or
// tautologies) over dense variables into a d-DNNF node, working in s.
func (c *compiler) compile(ctx context.Context, s *scratch, clauses []cnf.Clause) (*Node, error) {
	if err := c.checkBudget(ctx); err != nil {
		return nil, err
	}
	defer s.release(s.mark())

	// Unit propagation.
	units, rest, conflict := s.propagate(clauses)
	c.stats.Propagations += len(units)
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

	// Connected-component decomposition: the components are independent
	// subproblems (disjoint variables), compiled in component order.
	comps := s.components(rest)
	if len(comps) > 1 {
		c.stats.Components++
	}
	children := s.nodes.alloc(len(units) + len(comps))
	for _, l := range units {
		children = append(children, c.lit(l))
	}
	for _, comp := range comps {
		n, err := c.compileComponent(ctx, s, comp)
		if err != nil {
			return nil, err
		}
		children = append(children, n)
	}
	return c.b.And(children...), nil
}

// compileComponent compiles a single connected component, consulting the
// component cache. A lookup hashes the clauses where they lie and compares
// them in s, so a hit allocates nothing; only a miss encodes the clauses,
// in the order they came, for its cache entry.
func (c *compiler) compileComponent(ctx context.Context, s *scratch, clauses []cnf.Clause) (*Node, error) {
	var h uint64
	if c.cache != nil {
		h = hashClauses(clauses)
		if n := c.cache.lookup(s, h, clauses); n != nil {
			c.stats.CacheHits++
			return n, nil
		}
		c.stats.CacheMisses++
	}

	v := s.pickVar(clauses)
	c.stats.Decisions++
	hi, err := c.cofactor(ctx, s, clauses, cnf.Lit(v))
	if err != nil {
		return nil, err
	}
	lo, err := c.cofactor(ctx, s, clauses, cnf.Lit(-v))
	if err != nil {
		return nil, err
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
// node, so deriving each cofactor just before it compiles leaves the node
// allocation order that of compiling the cofactors one after the other.
func (c *compiler) cofactor(ctx context.Context, s *scratch, clauses []cnf.Clause, l cnf.Lit) (*Node, error) {
	defer s.release(s.mark())
	conditioned, empty := s.assign(clauses, l)
	if empty {
		return c.b.False(), nil
	}
	return c.compile(ctx, s, conditioned)
}
