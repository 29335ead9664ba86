package dnnf

import (
	"slices"

	"repro/internal/cnf"
)

// renumber renumbers a normalized clause set in place to variables 1..n in
// ascending order of its original variables and returns orig, where orig[d]
// is the original variable of dense variable d (orig[0] is unused). The map
// is monotone, so literal order within each clause, every "smaller variable
// wins" tie-break and the component order all carry over unchanged.
func renumber(clauses []cnf.Clause) (orig []int) {
	lits := 0
	for _, cl := range clauses {
		lits += len(cl)
	}
	orig = make([]int, 1, lits+1)
	for _, cl := range clauses {
		for _, l := range cl {
			orig = append(orig, l.Var())
		}
	}
	slices.Sort(orig[1:])
	orig = slices.Compact(orig)
	for _, cl := range clauses {
		for j, l := range cl {
			d, _ := slices.BinarySearch(orig[1:], l.Var())
			cl[j] = cnf.Lit(d + 1)
			if !l.Positive() {
				cl[j] = -cl[j]
			}
		}
	}
	return orig
}

// scratch is one goroutine's working memory for the compile recursion over
// dense variables 1..n. Every array is indexed by dense variable, and every
// array but aux and parent is all zero between calls: each method restores
// the entries it touched before it returns.
//
// The clause sets the recursion derives — propagate's and assign's residual
// clause lists and shortened clauses, components' groups and the children
// of a frame's ∧-gate — come from stacks: a frame marks them on entry and
// releases everything above its mark on return, so the chunks are reused
// from decision to decision.
type scratch struct {
	aux    []bool  // pickVar: the Tseytin auxiliaries, fixed per compile
	count  []int32 // pickVar: clauses mentioning each variable
	value  []int8  // propagate: +1 / -1 for a variable implied true / false
	parent []int32 // components: union-find forest, set up per call
	size   []int32 // components: clauses per root, then the root's group
	units  []cnf.Lit
	roots  []int32
	buf    []byte // compileComponent: a missed component's clause set

	// matches: a cached clause set decoded into views of decoded, and a
	// copy of the sought clauses, both to sort.
	decoded []cnf.Lit
	views   []cnf.Clause
	sorted  []cnf.Clause

	lits    stack[cnf.Lit]
	clauses stack[cnf.Clause]
	groups  stack[[]cnf.Clause]
	nodes   stack[*Node]
}

// newScratch returns a scratch for the dense variables that orig maps back
// (see renumber), with aux marking the formula's auxiliaries.
func newScratch(orig []int, aux map[int]bool) *scratch {
	n := len(orig)
	// Tseytin CNFs have two to three clauses per variable, so a chunk of
	// 4n clauses holds any one clause list of the recursion. A frame takes
	// only a few groups and gate children, so a chunk of n of them serves
	// a whole path of decisions.
	s := &scratch{
		aux:     make([]bool, n),
		count:   make([]int32, n),
		value:   make([]int8, n),
		parent:  make([]int32, n),
		size:    make([]int32, n),
		lits:    stack[cnf.Lit]{chunk: 4 * n},
		clauses: stack[cnf.Clause]{chunk: 4 * n},
		groups:  stack[[]cnf.Clause]{chunk: n},
		nodes:   stack[*Node]{chunk: n},
	}
	for d, v := range orig[1:] {
		s.aux[d+1] = aux[v]
	}
	return s
}

// frame marks the tops of a scratch's stacks.
type frame struct{ lits, clauses, groups, nodes stackMark }

// mark returns the current tops of s's stacks.
func (s *scratch) mark() frame {
	return frame{s.lits.mark(), s.clauses.mark(), s.groups.mark(), s.nodes.mark()}
}

// release frees everything allocated from s's stacks since f was marked.
func (s *scratch) release(f frame) {
	s.lits.release(f.lits)
	s.clauses.release(f.clauses)
	s.groups.release(f.groups)
	s.nodes.release(f.nodes)
}

// stack is a chunked bump allocator. alloc hands out slices from the chunk
// in use and moves to the next chunk when it is full; release frees
// everything allocated since a mark. Chunks stay allocated for reuse, and
// a slice must not be used after its release.
type stack[T any] struct {
	chunks [][]T
	used   int // chunks in use; the last of them is the one allocated from
	top    int // elements taken from chunks[used-1]
	chunk  int // the smallest chunk to allocate, in elements
}

// stackMark is a position in a stack.
type stackMark struct{ used, top int }

func (st *stack[T]) mark() stackMark { return stackMark{st.used, st.top} }

func (st *stack[T]) release(m stackMark) { st.used, st.top = m.used, m.top }

// alloc returns an empty slice with capacity n.
func (st *stack[T]) alloc(n int) []T {
	if st.used == 0 || st.top+n > len(st.chunks[st.used-1]) {
		if st.used == len(st.chunks) {
			st.chunks = append(st.chunks, nil)
		}
		if len(st.chunks[st.used]) < n {
			st.chunks[st.used] = make([]T, max(n, st.chunk))
		}
		st.used++
		st.top = 0
	}
	out := st.chunks[st.used-1][st.top : st.top : st.top+n]
	st.top += n
	return out
}

// trim returns the unused capacity of out, which must be the stack's most
// recent allocation, to the stack.
func (st *stack[T]) trim(out []T) { st.top -= cap(out) - len(out) }

// propagate performs exhaustive unit propagation. It returns the implied
// literals, the residual clauses (each with ≥2 literals, mentioning no
// assigned variable), and whether a conflict was derived. units is s's own
// buffer, valid until the next call; rest is clauses itself or comes from
// s's stacks.
func (s *scratch) propagate(clauses []cnf.Clause) (units []cnf.Lit, rest []cnf.Clause, conflict bool) {
	units, rest = s.units[:0], clauses
	owned := false
	for !conflict {
		implied := len(units)
		for _, cl := range rest {
			if len(cl) != 1 {
				continue
			}
			l := cl[0]
			if val := s.value[l.Var()]; val == 0 {
				s.value[l.Var()] = sign(l)
				units = append(units, l)
			} else if val != sign(l) {
				conflict = true
				break
			}
		}
		if conflict || len(units) == implied {
			break
		}
		// The first round copies the residual clauses to the stack; later
		// rounds filter that copy in place.
		next := rest[:0]
		if !owned {
			next, owned = s.clauses.alloc(len(rest)), true
		}
		for _, cl := range rest {
			reduced, sat, empty := s.reduce(cl)
			if empty {
				conflict = true
				break
			}
			if !sat {
				next = append(next, reduced)
			}
		}
		rest = next
	}
	for _, l := range units {
		s.value[l.Var()] = 0
	}
	s.units = units
	if conflict {
		return nil, nil, true
	}
	if owned {
		s.clauses.trim(rest)
	}
	return units, rest, false
}

// sign is +1 for a positive literal and -1 for a negative one.
func sign(l cnf.Lit) int8 {
	if l > 0 {
		return 1
	}
	return -1
}

// reduce simplifies a clause under propagate's partial assignment: a
// satisfied clause leaves the residual set, a falsified literal is struck.
// A clause mentioning no assigned variable is returned as is; clauses are
// never mutated, so sharing it is safe.
func (s *scratch) reduce(cl cnf.Clause) (out cnf.Clause, sat, empty bool) {
	struck := 0
	for _, l := range cl {
		switch s.value[l.Var()] {
		case 0:
		case sign(l):
			return nil, true, false
		default:
			struck++
		}
	}
	if struck == 0 {
		return cl, false, false
	}
	if struck == len(cl) {
		return nil, false, true
	}
	keep := s.lits.alloc(len(cl) - struck)
	for _, l := range cl {
		if s.value[l.Var()] == 0 {
			keep = append(keep, l)
		}
	}
	return keep, false, false
}

// assign simplifies the clauses under a single literal assignment. It
// returns the residual clauses, allocated from s's stacks, and whether an
// empty clause was derived.
func (s *scratch) assign(clauses []cnf.Clause, l cnf.Lit) ([]cnf.Clause, bool) {
	out := s.clauses.alloc(len(clauses))
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
			continue
		}
		if !removed {
			out = append(out, cl)
			continue
		}
		if len(cl) == 1 {
			return nil, true
		}
		// A normalized clause holds -l once.
		keep := s.lits.alloc(len(cl) - 1)
		for _, m := range cl {
			if m != -l {
				keep = append(keep, m)
			}
		}
		out = append(out, keep)
	}
	s.clauses.trim(out)
	return out, false
}

// find returns the root of v's union-find tree, halving the path.
func (s *scratch) find(v int32) int32 {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

// components partitions clauses into connected components of the
// clause-variable incidence graph. Each clause unites its first variable
// with each of its others, in clause order, and the components come in
// ascending order of their root variable, each keeping the clauses'
// relative order; a clause set that is one component is its own group. The
// groups come from s's stacks.
func (s *scratch) components(clauses []cnf.Clause) [][]cnf.Clause {
	for _, cl := range clauses {
		for _, l := range cl {
			s.parent[l.Var()] = int32(l.Var())
		}
	}
	for _, cl := range clauses {
		a := int32(cl[0].Var())
		for _, l := range cl[1:] {
			ra, rb := s.find(a), s.find(int32(l.Var()))
			if ra != rb {
				s.parent[ra] = rb
			}
		}
	}
	roots := s.roots[:0]
	for _, cl := range clauses {
		r := s.find(int32(cl[0].Var()))
		if s.size[r] == 0 {
			roots = append(roots, r)
		}
		s.size[r]++
	}
	s.roots = roots
	out := s.groups.alloc(len(roots))[:len(roots)]
	if len(roots) == 1 {
		s.size[roots[0]] = 0
		out[0] = clauses
		return out
	}
	slices.Sort(roots)
	backing := s.clauses.alloc(len(clauses))[:len(clauses)]
	for g, r := range roots {
		n := s.size[r]
		out[g] = backing[:0:n]
		backing = backing[n:]
		s.size[r] = int32(g)
	}
	for _, cl := range clauses {
		g := s.size[s.find(int32(cl[0].Var()))]
		out[g] = append(out[g], cl)
	}
	for _, r := range roots {
		s.size[r] = 0
	}
	return out
}

// pickVar selects the branching variable: the fact (non-auxiliary
// variable) occurring in the most clauses, ties broken by the smaller
// variable. An auxiliary is picked, by the same rule, only when the clauses
// mention no fact. On a Tseytin CNF the facts determine the auxiliaries —
// an assignment that satisfies the circuit has exactly one extension to
// them, any other none (Lemma 4.6) — and unit propagation fixes an
// auxiliary once its gate's inputs are set. So decisions on facts alone
// settle every auxiliary, and a decision on one would only be stripped from
// its gate again by EliminateAux.
func (s *scratch) pickVar(clauses []cnf.Clause) int {
	for _, cl := range clauses {
		for _, l := range cl {
			s.count[l.Var()]++
		}
	}
	best, bestCount, bestAux := 0, int32(-1), true
	for _, cl := range clauses {
		for _, l := range cl {
			v := l.Var()
			n, aux := s.count[v], s.aux[v]
			if aux && !bestAux {
				continue
			}
			if aux != bestAux || n > bestCount || (n == bestCount && v < best) {
				best, bestCount, bestAux = v, n, aux
			}
		}
	}
	for _, cl := range clauses {
		for _, l := range cl {
			s.count[l.Var()] = 0
		}
	}
	return best
}

// cacheKey returns the byte key of a clause set as a string.
func cacheKey(clauses []cnf.Clause) string {
	return string(appendClauseKey(nil, slices.Clone(clauses)))
}

// appendClauseKey appends the byte key of a clause set to dst and returns
// the extended buffer: the clauses in appendClauseSet's encoding, listed in
// lexicographic literal order, which sorts the clauses slice in place
// (never the clauses themselves). No literal encodes to a zero byte, so two
// clause multisets get the same key exactly when they are equal. Clauses
// are assumed literal-sorted (normalizeClause sorts them and every
// simplification preserves relative order).
func appendClauseKey(dst []byte, clauses []cnf.Clause) []byte {
	slices.SortFunc(clauses, slices.Compare[cnf.Clause])
	return appendClauseSet(dst, clauses)
}
