// Package engine evaluates SPJU queries (unions of conjunctive queries with
// filters) over databases (see internal/db) while tracking Boolean
// provenance: every output tuple is returned together with its lineage
// circuit in the sense of Imielinski and Lipski. This substitutes for the
// PostgreSQL + ProvSQL stack of the paper's implementation; downstream
// stages consume only the lineage circuits, which are the same Boolean
// functions either way.
//
// Evaluation is streaming: each conjunctive query compiles to a left-deep
// pipeline of iterators (see plan.go) that walks the store's scans and
// indexed lookups one row at a time, so grounding never materializes an
// intermediate binding table. The previous slice-materializing evaluator
// lives on in this package's tests as EvalMaterialized (materialized_test.go):
// it is the reference oracle for equivalence tests and the baseline of
// BenchmarkGround.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
)

// LineageMode selects which facts become provenance variables.
type LineageMode uint8

// Lineage modes.
const (
	// ModeEndogenous builds ELin(q, Dx, Dn) directly: exogenous facts are
	// fixed to true and only endogenous facts appear as variables. This is
	// the circuit C' of Figure 3.
	ModeEndogenous LineageMode = iota
	// ModeFull builds Lin(q, D): every fact is a variable. Used by the
	// probabilistic-database reduction, where exogenous facts get
	// probability 1.
	ModeFull
)

// Options configures evaluation.
type Options struct {
	Mode LineageMode
}

// Answer is one output tuple with its lineage.
type Answer struct {
	Tuple   db.Tuple
	Lineage *circuit.Node
}

// Derivation is one witness of an output tuple: the head values together
// with the facts (endogenous and exogenous) the witnessing join used. The
// tuple's lineage is the disjunction, over its derivations, of the
// conjunction of each derivation's endogenous fact variables — which is how
// Eval assembles circuits and how the incremental layer splices them.
type Derivation struct {
	Tuple db.Tuple
	Facts []*db.Fact // sorted by fact ID, duplicates removed
}

// Conjunction builds the derivation's provenance conjunction in b.
func (dv Derivation) Conjunction(b *circuit.Builder, opts Options) *circuit.Node {
	nodes := make([]*circuit.Node, len(dv.Facts))
	for i, f := range dv.Facts {
		nodes[i] = factNode(b, f, opts)
	}
	return b.And(nodes...)
}

// deriveFunc enumerates the derivations of one conjunctive query, with an
// optional pinned atom; deriveCQ (streaming) and the tests' reference
// deriveCQMaterialized implement it.
type deriveFunc func(d *db.Database, cq *query.CQ, pin int, pinFact *db.Fact) ([]Derivation, error)

// Eval evaluates the UCQ over the database, building lineage circuits in b.
// Answers are sorted by tuple for determinism. A Boolean query yields at
// most one answer with the empty tuple; absence means the query is false on
// every sub-database (lineage identically false).
func Eval(d *db.Database, q *query.UCQ, b *circuit.Builder, opts Options) ([]Answer, error) {
	return evalWith(d, q, b, opts, deriveCQ)
}

// evalWith is Eval parameterized by the derivation enumerator, so the
// streaming and materialized engines share the answer-assembly (grouping by
// tuple key, the least head in kindOrder as each answer's tuple, sorted
// output) and produce byte-identical answer orderings.
func evalWith(d *db.Database, q *query.UCQ, b *circuit.Builder, opts Options, derive deriveFunc) ([]Answer, error) {
	groups := make(map[string][]*circuit.Node)
	tuples := make(map[string]db.Tuple)
	for i := range q.Disjuncts {
		derivs, err := derive(d, &q.Disjuncts[i], -1, nil)
		if err != nil {
			return nil, fmt.Errorf("engine: disjunct %d: %w", i, err)
		}
		for _, dv := range derivs {
			key := dv.Tuple.Key()
			if t, ok := tuples[key]; !ok || kindOrder(dv.Tuple, t) < 0 {
				tuples[key] = dv.Tuple
			}
			groups[key] = append(groups[key], dv.Conjunction(b, opts))
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Answer, 0, len(keys))
	for _, k := range keys {
		out = append(out, Answer{Tuple: tuples[k], Lineage: b.Or(groups[k]...)})
	}
	return out, nil
}

// EvalDelta computes the derivations newly enabled by inserting fact f: for
// every atom of every disjunct over f's relation, it re-runs the join with
// that atom pinned to f alone, so the work is proportional to the bindings
// involving the touched fact rather than to the whole database. The
// database must already contain f (a derivation may use f at several atoms).
// Derivations double-counted across pin positions are exact duplicates and
// collapse under the support-set keying of the incremental layer (and under
// the circuit builder's hash-consing either way).
func EvalDelta(d *db.Database, q *query.UCQ, f *db.Fact) ([]Derivation, error) {
	var out []Derivation
	for i := range q.Disjuncts {
		cq := &q.Disjuncts[i]
		for ai := range cq.Atoms {
			if cq.Atoms[ai].Relation != f.Relation {
				continue
			}
			derivs, err := deriveCQ(d, cq, ai, f)
			if err != nil {
				return nil, fmt.Errorf("engine: disjunct %d: %w", i, err)
			}
			out = append(out, derivs...)
		}
	}
	return out, nil
}

// EvalBoolean evaluates a Boolean UCQ and returns its lineage circuit
// (constant false when the query has no derivation).
func EvalBoolean(d *db.Database, q *query.UCQ, b *circuit.Builder, opts Options) (*circuit.Node, error) {
	if !q.IsBoolean() {
		return nil, fmt.Errorf("engine: query has arity %d, want Boolean", q.Arity())
	}
	answers, err := Eval(d, q, b, opts)
	if err != nil {
		return nil, err
	}
	if len(answers) == 0 {
		return b.False(), nil
	}
	return answers[0].Lineage, nil
}

// deriveCQ enumerates the derivations of one conjunctive query by compiling
// it to a streaming plan and draining the row stream. With pin >= 0, atom
// pin ranges over only pinFact instead of its whole relation — the
// delta-join primitive behind EvalDelta.
func deriveCQ(d *db.Database, cq *query.CQ, pin int, pinFact *db.Fact) ([]Derivation, error) {
	p, err := planCQ(d, cq, pin)
	if err != nil {
		return nil, err
	}
	var out []Derivation
	err = p.run(d, pinFact, func(regs []db.Value, support []*db.Fact) bool {
		out = append(out, Derivation{Tuple: p.head(regs, support), Facts: normalizeSupport(support)})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func factNode(b *circuit.Builder, f *db.Fact, opts Options) *circuit.Node {
	if f.Endogenous || opts.Mode == ModeFull {
		return b.Variable(circuit.Var(f.ID))
	}
	return b.True()
}
