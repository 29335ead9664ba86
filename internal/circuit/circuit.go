// Package circuit implements Boolean circuits over fact variables: directed
// acyclic graphs of variable, constant, NOT, AND, and OR gates.
//
// Circuits are the provenance representation produced by the query engine
// (the lineage Lin(q,D) of Imielinski and Lipski) and the input to the
// Tseytin transformation. A Builder hash-conses gates so that structurally
// identical subcircuits are shared, which keeps lineage linear in the size
// of the evaluation rather than in the number of derivations.
package circuit

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Var identifies a Boolean variable. The engine uses fact IDs as variables;
// the Tseytin transformation introduces fresh auxiliary variables above the
// maximum input variable.
type Var int

// Kind enumerates gate kinds.
type Kind uint8

// Gate kinds.
const (
	KindVar Kind = iota
	KindConst
	KindNot
	KindAnd
	KindOr
)

func (k Kind) String() string {
	switch k {
	case KindVar:
		return "var"
	case KindConst:
		return "const"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is a gate in a circuit DAG. Nodes are immutable once created and are
// shared; always construct them through a Builder.
type Node struct {
	Kind     Kind
	Var      Var     // for KindVar
	Val      bool    // for KindConst
	Children []*Node // for KindNot (1 child), KindAnd, KindOr
	id       int     // builder-unique, for hash-consing and memoization
}

// ID returns a builder-unique identifier for the node, usable as a map key
// for memoized traversals.
func (n *Node) ID() int { return n.id }

// Builder constructs hash-consed circuit nodes. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	nextID int
	vars   map[Var]*Node
	trueN  *Node
	falseN *Node
	nots   map[int]*Node
	ands   map[string]*Node
	ors    map[string]*Node
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{
		vars: make(map[Var]*Node),
		nots: make(map[int]*Node),
		ands: make(map[string]*Node),
		ors:  make(map[string]*Node),
	}
	b.trueN = &Node{Kind: KindConst, Val: true, id: b.fresh()}
	b.falseN = &Node{Kind: KindConst, Val: false, id: b.fresh()}
	return b
}

func (b *Builder) fresh() int {
	b.nextID++
	return b.nextID
}

// Const returns the constant gate for v.
func (b *Builder) Const(v bool) *Node {
	if v {
		return b.trueN
	}
	return b.falseN
}

// True returns the constant-true gate.
func (b *Builder) True() *Node { return b.trueN }

// False returns the constant-false gate.
func (b *Builder) False() *Node { return b.falseN }

// Variable returns the gate for variable v.
func (b *Builder) Variable(v Var) *Node {
	if n, ok := b.vars[v]; ok {
		return n
	}
	n := &Node{Kind: KindVar, Var: v, id: b.fresh()}
	b.vars[v] = n
	return n
}

// Not returns the negation of n, folding constants and double negation.
func (b *Builder) Not(n *Node) *Node {
	switch n.Kind {
	case KindConst:
		return b.Const(!n.Val)
	case KindNot:
		return n.Children[0]
	}
	if m, ok := b.nots[n.id]; ok {
		return m
	}
	m := &Node{Kind: KindNot, Children: []*Node{n}, id: b.fresh()}
	b.nots[n.id] = m
	return m
}

// nary builds a hash-consed n-ary gate after constant folding,
// deduplication, and single-child collapse. neutral is the identity element
// (true for AND, false for OR); the opposite constant absorbs. The gate's
// children are sorted by ID, and its key lists their IDs, each followed by a
// comma.
func (b *Builder) nary(kind Kind, cache map[string]*Node, neutral bool, children []*Node) *Node {
	kept := make([]*Node, 0, len(children))
	for _, c := range children {
		if c.Kind == KindConst {
			if c.Val == neutral {
				continue
			}
			return b.Const(!neutral)
		}
		kept = append(kept, c)
	}
	slices.SortFunc(kept, func(x, y *Node) int { return cmp.Compare(x.id, y.id) })
	kept = slices.Compact(kept)
	switch len(kept) {
	case 0:
		return b.Const(neutral)
	case 1:
		return kept[0]
	}
	var buf [64]byte
	key := buf[:0]
	for _, c := range kept {
		key = append(strconv.AppendInt(key, int64(c.id), 10), ',')
	}
	if n, ok := cache[string(key)]; ok {
		return n
	}
	n := &Node{Kind: kind, Children: kept, id: b.fresh()}
	cache[string(key)] = n
	return n
}

// And returns the conjunction of the children.
func (b *Builder) And(children ...*Node) *Node {
	return b.nary(KindAnd, b.ands, true, children)
}

// Or returns the disjunction of the children.
func (b *Builder) Or(children ...*Node) *Node {
	return b.nary(KindOr, b.ors, false, children)
}

// Eval evaluates the circuit rooted at n under the assignment: a variable is
// true iff assign[v] is true (absent variables are false).
func Eval(n *Node, assign map[Var]bool) bool {
	memo := make(map[int]bool)
	var rec func(*Node) bool
	rec = func(m *Node) bool {
		if v, ok := memo[m.id]; ok {
			return v
		}
		var v bool
		switch m.Kind {
		case KindVar:
			v = assign[m.Var]
		case KindConst:
			v = m.Val
		case KindNot:
			v = !rec(m.Children[0])
		case KindAnd:
			v = true
			for _, c := range m.Children {
				if !rec(c) {
					v = false
					break
				}
			}
		case KindOr:
			v = false
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

// Vars returns the sorted set of variables appearing under n.
func Vars(n *Node) []Var {
	var out []Var
	visit(n, func(m *Node) {
		if m.Kind == KindVar {
			out = append(out, m.Var)
		}
	})
	// A Builder interns variable gates, so the walk meets each variable
	// once; Compact drops the repeats of gates built otherwise.
	slices.Sort(out)
	return slices.Compact(out)
}

// visit walks the DAG rooted at n once per node, in children-first order.
func visit(n *Node, f func(*Node)) {
	seen := make(map[int]bool)
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

// Size returns the number of distinct gates in the DAG rooted at n.
func Size(n *Node) int {
	count := 0
	visit(n, func(*Node) { count++ })
	return count
}

// NumEdges returns the total number of child edges in the DAG rooted at n.
func NumEdges(n *Node) int {
	edges := 0
	visit(n, func(m *Node) { edges += len(m.Children) })
	return edges
}

// Condition returns a circuit equivalent to n with every variable in assign
// replaced by the given constant. The result is built in b and shares
// structure where possible. This implements the partial evaluations C[f→1]
// and C[f→0] of Algorithm 1 and the exogenous fixing that turns Lin into
// ELin.
func Condition(b *Builder, n *Node, assign map[Var]bool) *Node {
	memo := make(map[int]*Node)
	var rec func(*Node) *Node
	rec = func(m *Node) *Node {
		if r, ok := memo[m.id]; ok {
			return r
		}
		var r *Node
		switch m.Kind {
		case KindVar:
			if val, ok := assign[m.Var]; ok {
				r = b.Const(val)
			} else {
				r = b.Variable(m.Var)
			}
		case KindConst:
			r = b.Const(m.Val)
		case KindNot:
			r = b.Not(rec(m.Children[0]))
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
			r = b.Or(cs...)
		}
		memo[m.id] = r
		return r
	}
	return rec(n)
}

// String renders the circuit as a formula. Shared subcircuits are expanded,
// so this is only suitable for small circuits (tests, examples).
func String(n *Node) string {
	var rec func(*Node) string
	rec = func(m *Node) string {
		switch m.Kind {
		case KindVar:
			return fmt.Sprintf("x%d", m.Var)
		case KindConst:
			if m.Val {
				return "⊤"
			}
			return "⊥"
		case KindNot:
			return "¬" + rec(m.Children[0])
		case KindAnd, KindOr:
			op := " ∧ "
			if m.Kind == KindOr {
				op = " ∨ "
			}
			parts := make([]string, len(m.Children))
			for i, c := range m.Children {
				parts[i] = rec(c)
			}
			return "(" + strings.Join(parts, op) + ")"
		}
		return "?"
	}
	return rec(n)
}
