package engine

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
)

// The materialized evaluator: the engine's original strategy, kept in the
// tests as the reference oracle for the streaming pipeline (property tests
// assert derivation-set identity between the two) and as the baseline side
// of BenchmarkGround. It joins one atom at a time into a fully
// materialized []binding slice, rebuilding a hash index over the joined
// relation at every step — O(intermediate result) memory, which is exactly
// what the streaming plan in plan.go avoids. Join keys are the Tuple.Keys
// of the bound positions' values, gathered in one scratch tuple per join
// rather than a new sub-tuple per fact and per probe as the original did;
// BenchmarkJoinAtom measures the allocation drop.

// binding is a partial homomorphism from query variables to values, with the
// facts supporting it (one per joined atom, in join order).
type binding struct {
	vals  map[string]db.Value
	facts []*db.Fact
}

// EvalMaterialized evaluates the UCQ with the materialized engine. It is
// answer-for-answer identical to Eval — same tuples, same order, equivalent
// lineage — only the evaluation strategy differs.
func EvalMaterialized(d *db.Database, q *query.UCQ, b *circuit.Builder, opts Options) ([]Answer, error) {
	return evalWith(d, q, b, opts, deriveCQMaterialized)
}

// deriveCQMaterialized enumerates the derivations of one conjunctive query
// by materializing each intermediate binding set. With pin >= 0, atom pin
// ranges over only pinFact instead of its whole relation.
func deriveCQMaterialized(d *db.Database, cq *query.CQ, pin int, pinFact *db.Fact) ([]Derivation, error) {
	if err := cq.Validate(); err != nil {
		return nil, err
	}
	for _, a := range cq.Atoms {
		rel := d.Relation(a.Relation)
		if rel == nil {
			return nil, fmt.Errorf("engine: %w %q", db.ErrUnknownRelation, a.Relation)
		}
		if len(a.Args) != rel.Schema.Arity() {
			return nil, fmt.Errorf("atom %s: relation has arity %d: %w", a, rel.Schema.Arity(), db.ErrArity)
		}
	}

	bindings := []binding{{vals: map[string]db.Value{}}}
	bound := make(map[string]bool)
	remainingAtoms := make([]int, len(cq.Atoms))
	for i := range remainingAtoms {
		remainingAtoms[i] = i
	}
	pendingFilters := make([]query.Filter, len(cq.Filters))
	copy(pendingFilters, cq.Filters)

	for len(remainingAtoms) > 0 && len(bindings) > 0 {
		idx := pickAtom(cq, remainingAtoms, bound, pin)
		atom := cq.Atoms[idx]
		remainingAtoms = removeInt(remainingAtoms, idx)

		facts := d.Relation(atom.Relation).Facts()
		if idx == pin {
			facts = []*db.Fact{pinFact}
		}
		var err error
		bindings, err = joinAtom(atom, facts, bindings, bound)
		if err != nil {
			return nil, err
		}
		for _, v := range atom.Vars() {
			bound[v] = true
		}
		// Apply every filter whose variables are now all bound.
		pendingFilters, bindings, err = applyFilters(pendingFilters, bindings, bound)
		if err != nil {
			return nil, err
		}
	}
	if len(pendingFilters) > 0 && len(bindings) > 0 {
		return nil, fmt.Errorf("filters %v reference unbound variables", pendingFilters)
	}

	out := make([]Derivation, 0, len(bindings))
	for _, bd := range bindings {
		head := make(db.Tuple, len(cq.Head))
		for i, h := range cq.Head {
			head[i] = bd.vals[h]
		}
		out = append(out, Derivation{Tuple: head, Facts: normalizeSupport(bd.facts)})
	}
	return out, nil
}

// pickAtom greedily selects the next atom to join: the one with the most
// bound terms (constants count as bound), breaking ties by original order.
// This keeps intermediate binding sets small on the star-join workloads.
// A pinned atom (the single-fact delta atom) always goes first: it is the
// most selective join possible.
func pickAtom(cq *query.CQ, remaining []int, bound map[string]bool, pin int) int {
	best, bestScore := remaining[0], -1
	for _, idx := range remaining {
		if idx == pin {
			return idx
		}
		score := 0
		for _, t := range cq.Atoms[idx].Args {
			if !t.IsVar() || bound[t.Var] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = idx, score
		}
	}
	return best
}

func removeInt(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// joinAtom extends each binding with every fact of the given slice
// consistent with it. It builds a hash index on the atom positions that are
// constants or already-bound variables (the same positions for every
// binding, since all bindings at a stage bind the same variable set), keyed
// by the Tuple.Key of those positions' values.
func joinAtom(atom query.Atom, facts []*db.Fact, bindings []binding,
	bound map[string]bool) ([]binding, error) {

	keyPos := make([]int, 0, len(atom.Args))
	for i, t := range atom.Args {
		if !t.IsVar() || bound[t.Var] {
			keyPos = append(keyPos, i)
		}
	}

	// Index facts by the key positions.
	index := make(map[string][]*db.Fact, len(facts))
	sub := make(db.Tuple, len(keyPos))
	for _, f := range facts {
		for i, p := range keyPos {
			sub[i] = f.Tuple[p]
		}
		k := sub.Key()
		index[k] = append(index[k], f)
	}

	var out []binding
	for _, bd := range bindings {
		if !bindingValues(atom, keyPos, bd, sub) {
			continue
		}
		for _, f := range index[sub.Key()] {
			newVals, ok := extend(atom, f, bd)
			if !ok {
				continue
			}
			support := make([]*db.Fact, len(bd.facts), len(bd.facts)+1)
			copy(support, bd.facts)
			support = append(support, f)
			out = append(out, binding{vals: newVals, facts: support})
		}
	}
	return out, nil
}

// bindingValues fills sub with the values a binding seeks at the key
// positions; it returns false when the binding can never match
// (unreachable in practice since key positions are bound by construction).
func bindingValues(atom query.Atom, keyPos []int, bd binding, sub db.Tuple) bool {
	for i, p := range keyPos {
		t := atom.Args[p]
		if !t.IsVar() {
			sub[i] = t.Const
			continue
		}
		v, ok := bd.vals[t.Var]
		if !ok {
			return false
		}
		sub[i] = v
	}
	return true
}

// extend matches the fact against the atom under the binding, returning the
// extended variable map. Repeated unbound variables within the atom must
// agree across positions.
func extend(atom query.Atom, f *db.Fact, bd binding) (map[string]db.Value, bool) {
	newVals := make(map[string]db.Value, len(bd.vals)+len(atom.Args))
	for k, v := range bd.vals {
		newVals[k] = v
	}
	for i, t := range atom.Args {
		val := f.Tuple[i]
		if !t.IsVar() {
			if !t.Const.Equal(val) {
				return nil, false
			}
			continue
		}
		if prev, ok := newVals[t.Var]; ok {
			if !prev.Equal(val) {
				return nil, false
			}
			continue
		}
		newVals[t.Var] = val
	}
	return newVals, true
}

// applyFilters evaluates all filters whose variables are bound, dropping
// failing bindings. It returns the still-pending filters and the surviving
// bindings.
func applyFilters(filters []query.Filter, bindings []binding, bound map[string]bool) ([]query.Filter, []binding, error) {
	var ready, pending []query.Filter
	for _, f := range filters {
		ok := bound[f.Left] && (!f.Right.IsVar() || bound[f.Right.Var])
		if ok {
			ready = append(ready, f)
		} else {
			pending = append(pending, f)
		}
	}
	if len(ready) == 0 {
		return filters, bindings, nil
	}
	kept := bindings[:0]
	for _, bd := range bindings {
		pass := true
		for _, f := range ready {
			ok, err := f.Eval(bd.vals)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				pass = false
				break
			}
		}
		if pass {
			kept = append(kept, bd)
		}
	}
	return pending, kept, nil
}
