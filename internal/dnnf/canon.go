package dnnf

// Canonical (rename-invariant) formula labeling for the cross-call compile
// cache. Real query workloads produce many tuples whose lineages are
// isomorphic modulo variable renaming — the same join pattern instantiated
// over different facts Tseytin-encodes to structurally identical CNFs with
// different variable numbers. Keying the CompileCache on a canonical
// labeling of the clause hypergraph lets all of them share one compilation;
// the cached circuit is relabeled (one linear pass) to each caller's
// variables on a hit.
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

// canonicalSignature builds the cross-call cache key for canonical keying:
// the canonical clause-set key, the compilation-affecting options, and the
// canonical positions of the auxiliary variables (so isomorphism is required
// to respect Tseytin bookkeeping). The "c:" tag keeps canonical and
// byte-identical keyspaces disjoint within one shared cache.
func canonicalSignature(canonKey string, toCanon map[int]int, f *cnf.Formula, opts Options) string {
	auxCanon := make([]int, 0, len(f.Aux))
	for v, canon := range toCanon {
		if f.Aux[v] {
			auxCanon = append(auxCanon, canon)
		}
	}
	sort.Ints(auxCanon)
	buf := signatureHead("c:", canonKey, opts)
	for i, a := range auxCanon {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(a), 10)
	}
	return string(buf)
}

// Relabel rebuilds the d-DNNF rooted at n in builder b with every variable v
// replaced by m[v]; variables absent from m are kept. The mapping must be a
// bijection on the circuit's variables — renaming then preserves determinism
// and decomposability, so the result is a valid d-DNNF of the renamed
// formula. Cost is one linear pass over the DAG.
func Relabel(b *Builder, n *Node, m map[int]int) *Node {
	memo := make(map[int]*Node)
	var rec func(*Node) *Node
	rec = func(nd *Node) *Node {
		if r, ok := memo[nd.id]; ok {
			return r
		}
		var r *Node
		switch nd.Kind {
		case KindTrue:
			r = b.True()
		case KindFalse:
			r = b.False()
		case KindLit:
			v := nd.Lit
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			if nv, ok := m[v]; ok {
				v = nv
			}
			if neg {
				r = b.Lit(-v)
			} else {
				r = b.Lit(v)
			}
		case KindAnd:
			cs := make([]*Node, len(nd.Children))
			for i, c := range nd.Children {
				cs[i] = rec(c)
			}
			r = b.And(cs...)
		case KindOr:
			cs := make([]*Node, len(nd.Children))
			for i, c := range nd.Children {
				cs[i] = rec(c)
			}
			dec := nd.Decision
			if dec != 0 {
				if nv, ok := m[dec]; ok {
					dec = nv
				}
			}
			r = b.orSlice(dec, cs)
		}
		memo[nd.id] = r
		return r
	}
	return rec(n)
}
