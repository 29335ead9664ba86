// Package dnnf implements deterministic decomposable negation normal form
// (d-DNNF) circuits, a knowledge compiler from CNF to d-DNNF (the repo's
// substitute for the c2d compiler used in the paper), model counting, and
// the Tseytin auxiliary-variable elimination of Lemma 4.6.
//
// A d-DNNF is a Boolean circuit whose leaves are literals or constants, in
// which every ∧-gate is decomposable (its children mention disjoint
// variables) and every ∨-gate is deterministic (no assignment satisfies two
// of its children). These two properties make weighted model counting — and
// the paper's #SAT_k dynamic program — linear in the circuit size.
package dnnf

import (
	"cmp"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// Kind enumerates d-DNNF node kinds.
type Kind uint8

// Node kinds.
const (
	KindLit Kind = iota
	KindTrue
	KindFalse
	KindAnd
	KindOr
)

// Node is a node in a d-DNNF DAG. Nodes are immutable and shared; construct
// them through a Builder.
type Node struct {
	Kind     Kind
	Lit      int // for KindLit: +v or -v
	Children []*Node
	// Decision is the Shannon decision variable for ∨-nodes produced by the
	// compiler (0 when unknown). It witnesses determinism: one child implies
	// the variable, the other its negation.
	Decision int

	id    int
	lits  *litTable // the literal table of the builder that interned the node
	sup   []uint64  // variable support: a bitset over lits' variable index
	nvars int       // size of the support
	// Storage for up to two children and two support words, the common
	// case, so that most nodes are a single allocation.
	kids  [2]*Node
	words [2]uint64
}

// ID returns a builder-unique node identifier.
func (n *Node) ID() int { return n.id }

// NumVars returns the size of the node's variable support.
func (n *Node) NumVars() int { return n.nvars }

// Vars returns the sorted variable support of the node in a fresh slice.
func (n *Node) Vars() []int {
	if n.nvars == 0 {
		return nil
	}
	out := make([]int, 0, n.nvars)
	for w, word := range n.sup {
		for ; word != 0; word &= word - 1 {
			out = append(out, n.lits.vars[w*64+bits.TrailingZeros64(word)])
		}
	}
	slices.Sort(out)
	return out
}

// uniqueTable is a builder's unique table for one gate kind, keyed by gate
// hashes (see gateHash). A gate whose hash m already holds for a different
// gate goes to more, so every gate still gets exactly one node. The maps
// are made on the first insert, so a builder of a few nodes makes few maps.
type uniqueTable struct {
	m    map[uint64]*Node
	more map[uint64][]*Node
}

// find returns the gate with the decision and children stored under hash
// h, or nil.
func (t *uniqueTable) find(h uint64, decision int, children []*Node) *Node {
	same := func(n *Node) bool { return n.Decision == decision && slices.Equal(n.Children, children) }
	if n := t.m[h]; n != nil && same(n) {
		return n
	}
	for _, n := range t.more[h] {
		if same(n) {
			return n
		}
	}
	return nil
}

// insert stores the new gate n under its hash h.
func (t *uniqueTable) insert(h uint64, n *Node) {
	switch {
	case t.m == nil:
		t.m = map[uint64]*Node{h: n}
	case t.m[h] == nil:
		t.m[h] = n
	default:
		if t.more == nil {
			t.more = make(map[uint64][]*Node)
		}
		t.more[h] = append(t.more[h], n)
	}
}

// Builder hash-conses d-DNNF nodes and numbers them in the order it builds
// them. A Builder is not safe for concurrent use: one goroutine builds a
// circuit. A finished circuit is immutable, so many goroutines may read it
// at once, and each may build into a builder of its own from it, as the
// per-fact Algorithm 1 workers do when they condition one circuit.
type Builder struct {
	nextID int
	trueN  *Node
	falseN *Node
	lits   *litTable
	ands   uniqueTable
	ors    uniqueTable
}

// litTable holds a builder's literal leaves and the variable index that
// node supports are bitsets over. Nodes point to it rather than to their
// builder, so a circuit does not keep its builder's unique tables alive.
type litTable struct {
	leaves map[int]*Node
	// vars[i] is the variable of support bit i, in the order Lit first met
	// them.
	vars []int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{lits: &litTable{leaves: make(map[int]*Node)}}
	b.trueN = &Node{Kind: KindTrue, id: b.fresh(), lits: b.lits}
	b.falseN = &Node{Kind: KindFalse, id: b.fresh(), lits: b.lits}
	return b
}

func (b *Builder) fresh() int {
	b.nextID++
	return b.nextID
}

// NumNodes returns the number of nodes allocated so far, used for compile
// budgets.
func (b *Builder) NumNodes() int { return b.nextID }

// True returns the constant-true node.
func (b *Builder) True() *Node { return b.trueN }

// False returns the constant-false node.
func (b *Builder) False() *Node { return b.falseN }

// Lit returns the leaf for literal l (+v or -v).
func (b *Builder) Lit(l int) *Node {
	if l == 0 {
		panic("dnnf: zero literal")
	}
	t := b.lits
	if n := t.leaves[l]; n != nil {
		return n
	}
	v := l
	if v < 0 {
		v = -v
	}
	n := &Node{Kind: KindLit, Lit: l, id: b.fresh(), lits: t, nvars: 1}
	// The complementary leaf, if any, already holds v's index; both leaves
	// share its one-bit support.
	if twin := t.leaves[-l]; twin != nil {
		n.sup = twin.sup
	} else {
		i := len(t.vars)
		t.vars = append(t.vars, v)
		n.sup = zeroWords(n.words[:0], i/64+1)
		n.sup[i/64] = 1 << (i % 64)
	}
	t.leaves[l] = n
	return n
}

// zeroWords returns n zero words: dst extended if it is all zero and has
// the capacity, else a fresh slice.
func zeroWords(dst []uint64, n int) []uint64 {
	if n <= cap(dst) {
		return dst[:n]
	}
	return make([]uint64, n)
}

// gate returns a new ∧- or ∨-gate over a copy of the children, with a fresh
// ID and the union of the children's supports. It panics on an ∧ whose
// children share a variable: the conjunction would not be decomposable.
func (b *Builder) gate(kind Kind, decision int, children []*Node) *Node {
	n := &Node{Kind: kind, Decision: decision, lits: b.lits}
	if len(children) <= len(n.kids) {
		n.Children = n.kids[:len(children):len(children)]
	} else {
		n.Children = make([]*Node, len(children))
	}
	copy(n.Children, children)
	n.id = b.fresh()
	var shared int
	n.sup, n.nvars, shared = union(n.words[:0], children)
	if kind == KindAnd && shared != 0 {
		panic(fmt.Sprintf("dnnf: non-decomposable ∧ over variable %d", shared))
	}
	return n
}

// union returns the union of the nodes' supports, built in dst as
// zeroWords does, and its size, and a variable that two of them share (0
// when the supports are disjoint). The nodes must come from one builder.
func union(dst []uint64, nodes []*Node) (sup []uint64, size, shared int) {
	words := 0
	for _, c := range nodes {
		words = max(words, len(c.sup))
	}
	sup = zeroWords(dst, words)
	for _, c := range nodes {
		for i, w := range c.sup {
			if both := sup[i] & w; both != 0 && shared == 0 {
				shared = c.lits.varAt(i*64 + bits.TrailingZeros64(both))
			}
			sup[i] |= w
		}
	}
	for _, w := range sup {
		size += bits.OnesCount64(w)
	}
	return sup, size, shared
}

// varAt returns the variable of support bit i.
func (t *litTable) varAt(i int) int { return t.vars[i] }

// gateHash hashes a gate's decision variable and child IDs.
func gateHash(decision int, children []*Node) uint64 {
	h := hashWord(hashSeed, uint64(decision))
	for _, c := range children {
		h = hashWord(h, uint64(c.id))
	}
	return finish(h)
}

// internGate returns the unique gate of the kind over the kept children,
// building it on a miss. It allocates only for a new node.
func (b *Builder) internGate(table *uniqueTable, kind Kind, decision int, kept []*Node) *Node {
	h := gateHash(decision, kept)
	if n := table.find(h, decision, kept); n != nil {
		return n
	}
	n := b.gate(kind, decision, kept)
	table.insert(h, n)
	return n
}

// keptChildren appends the children other than skip to dst, sorted by ID.
// It reports stopped when a child is the constant stop, which decides the
// whole gate. It panics on a child from another builder: supports index
// one builder's variables, and IDs key one builder's unique tables.
func (b *Builder) keptChildren(dst []*Node, children []*Node, skip, stop Kind) (kept []*Node, stopped bool) {
	kept = dst
	for _, c := range children {
		if c.lits != b.lits {
			panic(fmt.Sprintf("dnnf: child node %d is from another builder", c.id))
		}
		switch c.Kind {
		case skip:
			continue
		case stop:
			return nil, true
		}
		kept = append(kept, c)
	}
	slices.SortFunc(kept, func(a, b *Node) int { return cmp.Compare(a.id, b.id) })
	return kept, false
}

// And returns the decomposable conjunction of the children. Constant
// children are folded; it panics if the children's supports overlap.
func (b *Builder) And(children ...*Node) *Node {
	var small [8]*Node
	kept, stopped := b.keptChildren(small[:0], children, KindTrue, KindFalse)
	switch {
	case stopped:
		return b.falseN
	case len(kept) == 0:
		return b.trueN
	case len(kept) == 1:
		return kept[0]
	}
	return b.internGate(&b.ands, KindAnd, 0, kept)
}

// Decision returns the deterministic disjunction (v ∧ hi) ∨ (¬v ∧ lo) with
// the decision variable recorded, folding constant branches.
func (b *Builder) Decision(v int, hi, lo *Node) *Node {
	hiBranch := b.And(b.Lit(v), hi)
	loBranch := b.And(b.Lit(-v), lo)
	return b.orSlice(v, []*Node{hiBranch, loBranch})
}

// Or returns a disjunction asserted deterministic by the caller. Use
// Decision when the children are Shannon branches of a variable.
func (b *Builder) Or(children ...*Node) *Node {
	return b.orSlice(0, children)
}

func (b *Builder) orSlice(decision int, children []*Node) *Node {
	// A true child makes the disjunction true; determinism then forces all
	// siblings to be false, so folding is sound.
	var small [8]*Node
	kept, stopped := b.keptChildren(small[:0], children, KindFalse, KindTrue)
	switch {
	case stopped:
		return b.trueN
	case len(kept) == 0:
		return b.falseN
	case len(kept) == 1:
		return kept[0]
	}
	return b.internGate(&b.ors, KindOr, decision, kept)
}

// Size returns the number of distinct nodes reachable from n.
func Size(n *Node) int {
	count := 0
	Visit(n, func(*Node) { count++ })
	return count
}

// NumEdges returns the number of child edges reachable from n.
func NumEdges(n *Node) int {
	edges := 0
	Visit(n, func(m *Node) { edges += len(m.Children) })
	return edges
}

// Visit walks the DAG rooted at n, children before parents, visiting each
// node exactly once. A Builder numbers every node after its children, so no
// node below n has an ID above n's.
func Visit(n *Node, f func(*Node)) {
	seen := make([]bool, n.id+1)
	var rec func(*Node)
	rec = func(m *Node) {
		if seen[m.id] {
			return
		}
		seen[m.id] = true
		for _, c := range m.Children {
			rec(c)
		}
		f(m)
	}
	rec(n)
}

// Eval evaluates the node under the assignment (absent variables are false).
func Eval(n *Node, assign map[int]bool) bool {
	memo := make(map[int]bool)
	var rec func(*Node) bool
	rec = func(m *Node) bool {
		if v, ok := memo[m.id]; ok {
			return v
		}
		var v bool
		switch m.Kind {
		case KindTrue:
			v = true
		case KindFalse:
			v = false
		case KindLit:
			if m.Lit > 0 {
				v = assign[m.Lit]
			} else {
				v = !assign[-m.Lit]
			}
		case KindAnd:
			v = true
			for _, c := range m.Children {
				if !rec(c) {
					v = false
					break
				}
			}
		case KindOr:
			for _, c := range m.Children {
				if rec(c) {
					v = true
					break
				}
			}
		}
		memo[m.id] = v
		return v
	}
	return rec(n)
}

// Condition returns the node with every variable in assign fixed to the
// given constant, rebuilt in builder b. Conditioning preserves determinism
// and decomposability.
func Condition(b *Builder, n *Node, assign map[int]bool) *Node {
	memo := make(map[int]*Node)
	var rec func(*Node) *Node
	rec = func(m *Node) *Node {
		if r, ok := memo[m.id]; ok {
			return r
		}
		var r *Node
		switch m.Kind {
		case KindTrue:
			r = b.True()
		case KindFalse:
			r = b.False()
		case KindLit:
			v := m.Lit
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			if val, ok := assign[v]; ok {
				if val != neg {
					r = b.True()
				} else {
					r = b.False()
				}
			} else {
				r = b.Lit(m.Lit)
			}
		case KindAnd:
			cs := make([]*Node, len(m.Children))
			for i, c := range m.Children {
				cs[i] = rec(c)
			}
			r = b.And(cs...)
		case KindOr:
			cs := make([]*Node, len(m.Children))
			for i, c := range m.Children {
				cs[i] = rec(c)
			}
			r = b.orSlice(m.Decision, cs)
		}
		memo[m.id] = r
		return r
	}
	return rec(n)
}

// CountModels returns the number of satisfying assignments of n over the
// given variable universe, which must contain Vars(n). It is exact
// (math/big) and linear in the circuit size.
func CountModels(n *Node, universe []int) *big.Int {
	missing := len(universe) - n.nvars
	if missing < 0 {
		panic("dnnf: universe smaller than node support")
	}
	c := countOverSupport(n)
	return c.Mul(c, new(big.Int).Lsh(big.NewInt(1), uint(missing)))
}

// countOverSupport counts satisfying assignments over exactly Vars(n).
func countOverSupport(n *Node) *big.Int {
	memo := make(map[int]*big.Int)
	one := big.NewInt(1)
	var rec func(*Node) *big.Int
	rec = func(m *Node) *big.Int {
		if v, ok := memo[m.id]; ok {
			return v
		}
		var v *big.Int
		switch m.Kind {
		case KindTrue, KindLit:
			v = one
		case KindFalse:
			v = big.NewInt(0)
		case KindAnd:
			v = big.NewInt(1)
			for _, c := range m.Children {
				v.Mul(v, rec(c))
			}
		case KindOr:
			v = big.NewInt(0)
			for _, c := range m.Children {
				// A child covering fewer variables stands for any value of
				// the gap variables: scale by 2^gap.
				gap := uint(m.nvars - c.nvars)
				t := new(big.Int).Lsh(rec(c), gap)
				v.Add(v, t)
			}
		}
		memo[m.id] = v
		return v
	}
	return rec(n)
}

// WMC computes the weighted model count of n with per-variable rational
// weights: weight(v) for the positive literal and 1-weight(v) for the
// negative one. Because each variable's two weights sum to 1, variables
// outside a child's support contribute factor 1 and need no correction; the
// result is the probability Pr(q, (D,π)) when n represents the lineage of q
// on the tuple-independent database (D,π).
func WMC(n *Node, weight func(v int) *big.Rat) *big.Rat {
	memo := make(map[int]*big.Rat)
	oneRat := new(big.Rat).SetInt64(1)
	var rec func(*Node) *big.Rat
	rec = func(m *Node) *big.Rat {
		if v, ok := memo[m.id]; ok {
			return v
		}
		var v *big.Rat
		switch m.Kind {
		case KindTrue:
			v = oneRat
		case KindFalse:
			v = new(big.Rat)
		case KindLit:
			va := m.Lit
			if va > 0 {
				v = weight(va)
			} else {
				v = new(big.Rat).Sub(oneRat, weight(-va))
			}
		case KindAnd:
			v = new(big.Rat).SetInt64(1)
			for _, c := range m.Children {
				v.Mul(v, rec(c))
			}
		case KindOr:
			v = new(big.Rat)
			for _, c := range m.Children {
				// Gap variables contribute weight(v) + (1-weight(v)) = 1.
				// (Contrast with CountModels, where an unconstrained
				// variable contributes factor 2.)
				v.Add(v, rec(c))
			}
		}
		memo[m.id] = v
		return v
	}
	return new(big.Rat).Set(rec(n))
}
