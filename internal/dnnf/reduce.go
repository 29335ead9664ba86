package dnnf

// This file implements Lemma 4.6 of the paper: given a d-DNNF C'' equivalent
// to Tseytin(C') for a Boolean circuit C', produce in time O(|C''|) a d-DNNF
// C''' equivalent to C' itself, whose variables are exactly the original
// (non-auxiliary) variables. The construction: remove unsatisfiable gates,
// drop gates disconnected from the output, and replace every literal z or ¬z
// on an auxiliary variable z ∈ Z with a constant 1-gate. Correctness rests
// on the Tseytin properties — every satisfying assignment of C' has exactly
// one satisfying extension to Z, and non-satisfying assignments have none —
// so each original model is counted exactly once after the replacement.

// EliminateAux applies Lemma 4.6: it returns a d-DNNF over the original
// variables only, equivalent to the circuit the Tseytin CNF was built from.
// isAux reports whether a variable is a Tseytin auxiliary.
func EliminateAux(n *Node, isAux func(v int) bool) *Node {
	sat := satisfiable(n)
	b := NewBuilder()
	memo := make([]*Node, n.id+1) // IDs below n are at most n's (see Visit)
	// A gate's reduced children are gathered in cs once all of them are
	// built, so one buffer serves every gate.
	var cs []*Node
	var rec func(*Node) *Node
	rec = func(m *Node) *Node {
		if r := memo[m.id]; r != nil {
			return r
		}
		var r *Node
		switch {
		case !sat[m.id]:
			r = b.False()
		case m.Kind == KindTrue:
			r = b.True()
		case m.Kind == KindFalse:
			r = b.False()
		case m.Kind == KindLit:
			v := m.Lit
			if v < 0 {
				v = -v
			}
			if isAux(v) {
				r = b.True()
			} else {
				r = b.Lit(m.Lit)
			}
		case m.Kind == KindAnd:
			for _, c := range m.Children {
				rec(c)
			}
			cs = cs[:0]
			for _, c := range m.Children {
				cs = append(cs, memo[c.id])
			}
			r = b.And(cs...)
		default: // KindOr
			for _, c := range m.Children {
				if sat[c.id] {
					rec(c)
				}
			}
			cs = cs[:0]
			for _, c := range m.Children {
				if sat[c.id] {
					cs = append(cs, memo[c.id])
				}
			}
			dec := m.Decision
			if dec != 0 && isAux(dec) {
				dec = 0
			}
			r = b.orSlice(dec, cs)
		}
		memo[m.id] = r
		return r
	}
	return rec(n)
}

// satisfiable computes, for every node in the DAG, whether it has at least
// one satisfying assignment, indexed by node ID. Under decomposability an ∧
// is satisfiable iff all children are; an ∨ iff any child is.
func satisfiable(n *Node) []bool {
	sat := make([]bool, n.id+1)
	Visit(n, func(m *Node) {
		switch m.Kind {
		case KindTrue, KindLit:
			sat[m.id] = true
		case KindFalse:
			sat[m.id] = false
		case KindAnd:
			ok := true
			for _, c := range m.Children {
				if !sat[c.id] {
					ok = false
					break
				}
			}
			sat[m.id] = ok
		case KindOr:
			ok := false
			for _, c := range m.Children {
				if sat[c.id] {
					ok = true
					break
				}
			}
			sat[m.id] = ok
		}
	})
	return sat
}
