package dnnf

import "fmt"

// CheckDecomposable verifies that every ∧-gate in the DAG has children with
// pairwise disjoint variable supports. The Builder enforces this at
// construction time; the check exists for circuits converted from external
// representations and for property tests.
func CheckDecomposable(n *Node) error {
	var fail error
	Visit(n, func(m *Node) {
		if fail != nil || m.Kind != KindAnd {
			return
		}
		if v, ok := sharedVar(m.Children); ok {
			fail = fmt.Errorf("dnnf: ∧-gate %d not decomposable: variable %d repeats", m.id, v)
		}
	})
	return fail
}

// sharedVar returns a variable in the supports of two of the nodes, if any.
// The nodes must come from one builder.
func sharedVar(nodes []*Node) (int, bool) {
	_, _, v := union(nil, nodes)
	return v, v != 0
}

// CheckDeterministic verifies, by brute force over all assignments to each
// ∨-gate's support, that no assignment satisfies two distinct children. It
// is exponential in the gate support size and intended for tests; it
// returns an error if any gate has support larger than maxVars.
func CheckDeterministic(n *Node, maxVars int) error {
	var fail error
	Visit(n, func(m *Node) {
		if fail != nil || m.Kind != KindOr {
			return
		}
		if m.nvars > maxVars {
			fail = fmt.Errorf("dnnf: ∨-gate %d support %d exceeds brute-force limit %d",
				m.id, m.nvars, maxVars)
			return
		}
		vars := m.Vars()
		assign := make(map[int]bool, len(vars))
		for mask := 0; mask < 1<<len(vars); mask++ {
			for i, v := range vars {
				assign[v] = mask&(1<<i) != 0
			}
			hits := 0
			for _, c := range m.Children {
				if Eval(c, assign) {
					hits++
				}
			}
			if hits > 1 {
				fail = fmt.Errorf("dnnf: ∨-gate %d not deterministic: %d children satisfied by %v",
					m.id, hits, assign)
				return
			}
		}
	})
	return fail
}

// Validate runs both structural checks (brute-force determinism limited to
// gates with at most maxVars support variables).
func Validate(n *Node, maxVars int) error {
	if err := CheckDecomposable(n); err != nil {
		return err
	}
	return CheckDeterministic(n, maxVars)
}
