package engine

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/query"
)

// The streaming evaluator compiles each conjunctive query into a left-deep
// pipeline of composable iterators — scan → select → indexed-join →
// project — and executes it one row at a time: memory is O(join depth)
// instead of O(intermediate result), which is what lets grounding stream
// over datasets that do not fit the materialized evaluator's binding
// slices.
//
// Planning is greedy and statistics-free, generalizing the old pickAtom:
// atoms are ordered by bound-term count (constants count as bound, and a
// delta-pinned atom is the most selective join possible so it always goes
// first), breaking ties toward smaller relations; every step with at least
// one bound position executes as an indexed lookup against the store's
// lazily built secondary index for that (relation, bound-positions)
// pattern. Filters are pushed down to the shallowest step at which all
// their variables are bound, so failing rows are discarded before deeper
// joins ever see them.
//
// Variables live in registers assigned at plan time: a row is a flat
// []db.Value indexed by register plus one supporting fact per step, so the
// per-row cost has no map operations and no string keys.

// keyPart describes one bound position of a step's lookup: either a
// register to read or a constant.
type keyPart struct {
	reg int // register index; -1 for a constant
	c   db.Value
}

// planFilter is a query.Filter with operands resolved to registers.
type planFilter struct {
	f        query.Filter
	leftReg  int
	rightReg int // -1 when the right operand is a constant
}

// planStep is one join level of the pipeline.
type planStep struct {
	atom   query.Atom
	pinned bool // ranges over the single delta fact instead of the relation
	// Bound positions (ascending) and where their sought values come from.
	keyPos   []int
	keyParts []keyPart
	// keyAt is where the step's sought values start in run's probe slice.
	keyAt int
	// Positions introducing new variables, and the registers they write.
	outPos []int
	outReg []int
	// Positions that must equal an earlier position of the same atom (a
	// variable repeated within the atom, first bound at eqTo).
	eqPos [][2]int // (position, earlier position)
	// Filters fully bound once this step has extended the row.
	filters []planFilter
}

// plan is a compiled conjunctive query, valid for the database schema it
// was planned against.
type plan struct {
	steps    []planStep
	nregs    int
	nkeys    int // bound positions over all steps
	headRegs []int
	// headAt lists, for each head variable that occurs more than once, the
	// (step, position) pairs it occurs at; nil for the others.
	headAt [][][2]int
}

// planCQ validates the query against the database and compiles it. With
// pin >= 0, atom pin is planned as a single-fact scan (the delta-join
// primitive); it is ordered first, being maximally selective.
func planCQ(d *db.Database, cq *query.CQ, pin int) (*plan, error) {
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

	p := &plan{}
	regOf := make(map[string]int)
	reg := func(v string) int {
		r, ok := regOf[v]
		if !ok {
			r = p.nregs
			regOf[v] = r
			p.nregs++
		}
		return r
	}
	bound := make(map[string]bool)

	remaining := make([]int, len(cq.Atoms))
	for i := range remaining {
		remaining[i] = i
	}
	pendingFilters := append([]query.Filter(nil), cq.Filters...)

	for len(remaining) > 0 {
		idx := nextAtom(d, cq, remaining, bound, pin)
		for i, r := range remaining {
			if r == idx {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
		atom := cq.Atoms[idx]
		st := planStep{atom: atom, pinned: idx == pin, keyAt: p.nkeys}
		firstPos := make(map[string]int)
		for i, t := range atom.Args {
			switch {
			case !t.IsVar():
				st.keyPos = append(st.keyPos, i)
				st.keyParts = append(st.keyParts, keyPart{reg: -1, c: t.Const})
			case bound[t.Var]:
				st.keyPos = append(st.keyPos, i)
				st.keyParts = append(st.keyParts, keyPart{reg: regOf[t.Var]})
			case firstPos[t.Var] != 0:
				// Repeated new variable within the atom: equality check
				// against its first position.
				st.eqPos = append(st.eqPos, [2]int{i, firstPos[t.Var] - 1})
			default:
				firstPos[t.Var] = i + 1 // +1 so position 0 is distinguishable from absent
				st.outPos = append(st.outPos, i)
				st.outReg = append(st.outReg, reg(t.Var))
			}
		}
		p.nkeys += len(st.keyParts)
		for _, v := range atom.Vars() {
			bound[v] = true
		}
		// Push down every filter whose variables are now all bound.
		var stillPending []query.Filter
		for _, f := range pendingFilters {
			if bound[f.Left] && (!f.Right.IsVar() || bound[f.Right.Var]) {
				pf := planFilter{f: f, leftReg: regOf[f.Left], rightReg: -1}
				if f.Right.IsVar() {
					pf.rightReg = regOf[f.Right.Var]
				}
				st.filters = append(st.filters, pf)
			} else {
				stillPending = append(stillPending, f)
			}
		}
		pendingFilters = stillPending
		p.steps = append(p.steps, st)
	}
	if len(pendingFilters) > 0 {
		// Unreachable after cq.Validate (every filter variable occurs in
		// some atom), kept as a defensive mirror of the old evaluator.
		return nil, fmt.Errorf("filters %v reference unbound variables", pendingFilters)
	}
	p.headRegs = make([]int, len(cq.Head))
	p.headAt = make([][][2]int, len(cq.Head))
	for i, h := range cq.Head {
		p.headRegs[i] = regOf[h]
		var at [][2]int
		for si, st := range p.steps {
			for pos, t := range st.atom.Args {
				if t.Var == h {
					at = append(at, [2]int{si, pos})
				}
			}
		}
		if len(at) > 1 {
			p.headAt[i] = at
		}
	}
	return p, nil
}

// head returns a row's head tuple. A variable that occurs more than once
// takes the value of least kind among its occurrences, which are all
// Equal: an int before a float. So the head of a join is the same
// whichever atom the plan binds the variable from, as a delta plan pinned
// to another atom binds it.
func (p *plan) head(regs []db.Value, support []*db.Fact) db.Tuple {
	head := make(db.Tuple, len(p.headRegs))
	for i, r := range p.headRegs {
		head[i] = regs[r]
		for _, at := range p.headAt[i] {
			if v := support[at[0]].Tuple[at[1]]; v.Kind() < head[i].Kind() {
				head[i] = v
			}
		}
	}
	return head
}

// nextAtom greedily selects the next atom to join: the one with the most
// bound terms (constants count as bound), preferring smaller relations on
// ties — both selectivity proxies that need no statistics. A pinned atom
// (the single-fact delta atom) always goes first: it is the most selective
// join possible.
func nextAtom(d *db.Database, cq *query.CQ, remaining []int, bound map[string]bool, pin int) int {
	best, bestScore, bestLen := remaining[0], -1, 0
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
		n := d.Relation(cq.Atoms[idx].Relation).Len()
		if score > bestScore || (score == bestScore && n < bestLen) {
			best, bestScore, bestLen = idx, score, n
		}
	}
	return best
}

// run streams the plan's result rows. yield receives the register file and
// the per-step support facts — both reused across rows; the callback must
// copy what it keeps. Returning false stops the stream. pinFact is the
// single fact the pinned step ranges over (nil when the plan has no pin).
func (p *plan) run(d *db.Database, pinFact *db.Fact, yield func(regs []db.Value, support []*db.Fact) bool) error {
	regs := make([]db.Value, p.nregs)
	support := make([]*db.Fact, len(p.steps))
	// probe holds every step's sought values, each step in its own range:
	// a step's lookup is still streaming while deeper steps probe.
	probe := make([]db.Value, p.nkeys)
	var ferr error

	var down func(depth int) bool
	down = func(depth int) bool {
		if depth == len(p.steps) {
			return yield(regs, support)
		}
		st := &p.steps[depth]

		// Accept one candidate fact: verify the repeated variables a lookup
		// did not already match, extend the registers, and apply this
		// depth's filters before descending.
		accept := func(f *db.Fact) bool {
			for _, eq := range st.eqPos {
				if !f.Tuple[eq[0]].Equal(f.Tuple[eq[1]]) {
					return true // skip fact, keep streaming
				}
			}
			for i, pos := range st.outPos {
				regs[st.outReg[i]] = f.Tuple[pos]
			}
			support[depth] = f
			for _, pf := range st.filters {
				r := pf.f.Right.Const
				if pf.rightReg >= 0 {
					r = regs[pf.rightReg]
				}
				ok, err := pf.f.EvalValues(regs[pf.leftReg], r)
				if err != nil {
					ferr = err
					return false
				}
				if !ok {
					return true
				}
			}
			return down(depth + 1)
		}

		key := probe[st.keyAt : st.keyAt+len(st.keyParts)]
		for i, kp := range st.keyParts {
			key[i] = kp.c
			if kp.reg >= 0 {
				key[i] = regs[kp.reg]
			}
		}
		if st.pinned {
			// Single-fact scan: check what a lookup would have matched.
			for i, pos := range st.keyPos {
				if !pinFact.Tuple[pos].Equal(key[i]) {
					return true
				}
			}
			return accept(pinFact)
		}

		rel := d.Relation(st.atom.Relation)
		if len(st.keyPos) == 0 {
			for f := range rel.Scan() {
				if !accept(f) {
					return false
				}
			}
			return true
		}
		for f := range rel.Lookup(st.keyPos, key) {
			if !accept(f) {
				return false
			}
		}
		return true
	}

	down(0)
	return ferr
}
