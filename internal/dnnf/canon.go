package dnnf

// Canonical (rename-invariant) formula labeling for cross-call caches. Real
// query workloads produce many tuples whose lineages are isomorphic modulo
// variable renaming — the same join pattern instantiated over different
// facts Tseytin-encodes to structurally identical CNFs with different
// variable numbers. Keying a cache on a canonical labeling of the clause
// hypergraph (CacheKey) lets all of them share one entry, transferred to
// each caller's variables along key order.
//
// The labeling is iterative Weisfeiler–Leman-style color refinement on the
// clause–variable incidence graph with polarity-typed edges, followed by
// ordered individualization when refinement alone does not separate all
// variables. The scheme is sound by construction: the cache key is the fully
// relabeled clause set itself, so two formulas share a key only if they are
// literally identical after their respective renamings — i.e. genuinely
// isomorphic. Refinement quality only affects completeness (how many
// isomorphic pairs are detected), never correctness.

import (
	"encoding/binary"
	"sort"
	"strconv"

	"repro/internal/cnf"
)

// fnv-1a constants, used for all color hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Initial colors. Auxiliary (Tseytin) variables must never alias original
// ones, so the two classes start separated.
const (
	colorOriginal uint64 = 0x9e3779b97f4a7c15
	colorAux      uint64 = 0xc2b2ae3d27d4eb4f
)

func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func hashSeq(seed uint64, xs []uint64) uint64 {
	h := mix(fnvOffset, seed)
	for _, x := range xs {
		h = mix(h, x)
	}
	return h
}

// occurrence is one literal occurrence of a variable, as seen from the
// variable's side of the incidence graph.
type occurrence struct {
	clause   int
	positive bool
}

// maxIndividualizationRounds bounds the individualization loop: each round
// re-refines after separating one variable, so a formula with one large
// orbit of interchangeable variables (a wide symmetric ∨, say) would
// otherwise cost O(n) refinements. Past the cap, residual ties break by
// original variable id — still sound (the key is the relabeled clause set),
// and still rename-invariant for genuinely automorphic ties, where every
// choice renders the same clause set.
const maxIndividualizationRounds = 64

// canonicalForm computes a deterministic canonical variable labeling of the
// clause set and renders the relabeled clauses as a cache key. toCanon maps
// every occurring variable to its canonical index in 1..n. Renaming the
// input formula's variables by any bijection yields the same key (and
// composable toCanon maps) whenever refinement separates all variables —
// which it does for the non-regular incidence structures Tseytin encodings
// produce; residual ties are individualized in color order, which can only
// cost cache hits, never correctness.
//
// check, when non-nil, is invoked once per refinement and individualization
// round so compile budgets and caller cancellation reach canonicalization
// too; its error aborts the labeling.
func canonicalForm(clauses []cnf.Clause, isAux func(int) bool, check func() error) (toCanon map[int]int, key string, err error) {
	varIdx := make(map[int]int)
	var vars []int
	for _, cl := range clauses {
		for _, l := range cl {
			v := l.Var()
			if _, ok := varIdx[v]; !ok {
				varIdx[v] = len(vars)
				vars = append(vars, v)
			}
		}
	}
	n := len(vars)

	occs := make([][]occurrence, n)
	for ci, cl := range clauses {
		for _, l := range cl {
			i := varIdx[l.Var()]
			occs[i] = append(occs[i], occurrence{clause: ci, positive: l.Positive()})
		}
	}

	color := make([]uint64, n)
	for i, v := range vars {
		if isAux(v) {
			color[i] = colorAux
		} else {
			color[i] = colorOriginal
		}
	}

	distinct := func() int {
		seen := make(map[uint64]bool, n)
		for _, c := range color {
			seen[c] = true
		}
		return len(seen)
	}

	// refine runs WL iterations until the number of color classes stops
	// growing. Each round hashes every clause from its members' colors and
	// polarities, then every variable from its own color and its typed
	// clause neighborhood.
	clauseSig := make([]uint64, len(clauses))
	refine := func() error {
		prev := distinct()
		for round := 0; round < n; round++ {
			if check != nil {
				if err := check(); err != nil {
					return err
				}
			}
			for ci, cl := range clauses {
				sig := make([]uint64, len(cl))
				for j, l := range cl {
					s := color[varIdx[l.Var()]]
					if l.Positive() {
						s = mix(s, 1)
					} else {
						s = mix(s, 2)
					}
					sig[j] = s
				}
				sort.Slice(sig, func(a, b int) bool { return sig[a] < sig[b] })
				clauseSig[ci] = hashSeq(uint64(len(cl)), sig)
			}
			next := make([]uint64, n)
			for i := range vars {
				sig := make([]uint64, len(occs[i]))
				for j, oc := range occs[i] {
					s := clauseSig[oc.clause]
					if oc.positive {
						s = mix(s, 1)
					} else {
						s = mix(s, 2)
					}
					sig[j] = s
				}
				sort.Slice(sig, func(a, b int) bool { return sig[a] < sig[b] })
				next[i] = hashSeq(color[i], sig)
			}
			copy(color, next)
			cur := distinct()
			if cur == prev || cur == n {
				return nil
			}
			prev = cur
		}
		return nil
	}

	// byColor orders variable indices by (color, original id). The color is
	// the rename-invariant part; the original id only breaks ties inside a
	// color class, where members are interchangeable whenever they are
	// genuine automorphisms.
	byColor := func() []int {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if color[ia] != color[ib] {
				return color[ia] < color[ib]
			}
			return vars[ia] < vars[ib]
		})
		return order
	}

	// Individualize until the partition is discrete: give the first member
	// of the first non-singleton class (in color order) a fresh color and
	// re-refine. Each round separates at least one variable; the round cap
	// bounds the worst case on large symmetric orbits, past which byColor's
	// original-id tie-break orders the remainder.
	if err := refine(); err != nil {
		return nil, "", err
	}
	salt := uint64(0)
	for round := 0; distinct() < n && round < maxIndividualizationRounds; round++ {
		if check != nil {
			if err := check(); err != nil {
				return nil, "", err
			}
		}
		order := byColor()
		for k := 0; k < n; {
			j := k
			for j < n && color[order[j]] == color[order[k]] {
				j++
			}
			if j-k > 1 {
				salt++
				color[order[k]] = mix(color[order[k]], 0xdeadbeef+salt)
				break
			}
			k = j
		}
		if err := refine(); err != nil {
			return nil, "", err
		}
	}

	order := byColor()
	toCanon = make(map[int]int, n)
	for rank, i := range order {
		toCanon[vars[i]] = rank + 1
	}

	relabeled := make([]cnf.Clause, len(clauses))
	for i, cl := range clauses {
		rc := make(cnf.Clause, len(cl))
		for j, l := range cl {
			nv := cnf.Lit(toCanon[l.Var()])
			if !l.Positive() {
				nv = -nv
			}
			rc[j] = nv
		}
		sort.Slice(rc, func(a, b int) bool {
			va, vb := rc[a].Var(), rc[b].Var()
			if va != vb {
				return va < vb
			}
			return rc[a] < rc[b]
		})
		relabeled[i] = rc
	}
	return toCanon, cacheKey(relabeled), nil
}

// CacheKey normalizes f's clauses and returns the key under which a
// cross-call cache stores what is computed from f, with f's fact
// (non-auxiliary) variables in key order. The key is the canonical labeling
// of the clause hypergraph, so two formulas with equal keys are equal up to
// the renaming that maps the i-th fact variable of one onto the i-th of the
// other and auxiliaries onto auxiliaries, and a result that depends only on
// the formula transfers between them along key order. check, when non-nil,
// runs once per labeling round, and its error aborts the labeling.
func CacheKey(f *cnf.Formula, check func() error) (key string, facts []int, err error) {
	clauses := make([]cnf.Clause, 0, len(f.Clauses))
	for _, cl := range f.Clauses {
		if norm, taut := normalizeClause(cl); !taut {
			clauses = append(clauses, norm)
		}
	}
	isAux := func(v int) bool { return f.Aux[v] }
	toCanon, clauseKey, err := canonicalForm(clauses, isAux, check)
	if err != nil {
		return "", nil, err
	}
	order := make([]int, len(toCanon)) // every variable of the clauses, in key order
	for v, rank := range toCanon {
		order[rank-1] = v
	}
	// The length prefix keeps the auxiliary positions that follow the clause
	// key from being read as clauses. The positions make equal keys respect
	// Tseytin bookkeeping.
	buf := make([]byte, 0, binary.MaxVarintLen64+len(clauseKey)+4*len(order))
	buf = binary.AppendUvarint(buf, uint64(len(clauseKey)))
	buf = append(buf, clauseKey...)
	for i, v := range order {
		if isAux(v) {
			buf = strconv.AppendInt(append(buf, ','), int64(i+1), 10)
		} else {
			facts = append(facts, v)
		}
	}
	return string(buf), facts, nil
}
