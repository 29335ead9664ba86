// Package query defines the query language of the engine: unions of
// conjunctive queries (UCQs) with comparison filters — the
// Select-Project-Join-Union fragment the paper's implementation supports —
// plus a small datalog-style text parser and the hierarchy test for
// self-join-free conjunctive queries.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/db"
)

// Term is an argument of an atom: either a variable or a constant.
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the constant value; meaningful only when Var is empty.
	Const db.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v db.Value) Term { return Term{Const: v} }

// CInt returns an integer constant term.
func CInt(v int64) Term { return C(db.Int(v)) }

// CStr returns a string constant term.
func CStr(v string) Term { return C(db.String(v)) }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term so that Parse reads it back as the same term. A
// string constant is written raw between double quotes, or between single
// quotes when it contains a double quote; a float constant is written in
// positional notation with a decimal point, so it parses as a float again.
// A string holding both quote characters, which Parse never produces, has
// no such rendering and is written Go-quoted.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	switch t.Const.Kind() {
	case db.KindString:
		s := t.Const.AsString()
		switch {
		case !strings.Contains(s, `"`):
			return `"` + s + `"`
		case !strings.Contains(s, `'`):
			return `'` + s + `'`
		}
		return strconv.Quote(s)
	case db.KindFloat:
		text := strconv.FormatFloat(t.Const.AsFloat(), 'f', -1, 64)
		if !strings.Contains(text, ".") {
			text += ".0"
		}
		return text
	}
	return t.Const.String()
}

// Atom is a relational atom R(t1, ..., tk).
type Atom struct {
	Relation string
	Args     []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Relation + "(" + strings.Join(parts, ", ") + ")"
}

// Vars returns the distinct variables of the atom in order of appearance.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// Op is a comparison operator used in filters.
type Op uint8

// Filter operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// OpContains matches string containment (a simplified LIKE '%s%').
	OpContains
	// OpPrefix matches string prefixes (LIKE 's%').
	OpPrefix
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "~"
	case OpPrefix:
		return "^"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Filter is a comparison between a variable and either a constant or a
// second variable (Right.Var non-empty).
type Filter struct {
	Left  string
	Op    Op
	Right Term
}

// Eval evaluates the filter given a variable binding.
func (f Filter) Eval(binding map[string]db.Value) (bool, error) {
	l, ok := binding[f.Left]
	if !ok {
		return false, fmt.Errorf("query: filter references unbound variable %q", f.Left)
	}
	var r db.Value
	if f.Right.IsVar() {
		r, ok = binding[f.Right.Var]
		if !ok {
			return false, fmt.Errorf("query: filter references unbound variable %q", f.Right.Var)
		}
	} else {
		r = f.Right.Const
	}
	return f.EvalValues(l, r)
}

// EvalValues evaluates the filter's comparison on already-resolved operand
// values. The streaming evaluator resolves variables to registers at plan
// time and calls this directly, skipping the binding-map lookups of Eval.
func (f Filter) EvalValues(l, r db.Value) (bool, error) {
	switch f.Op {
	case OpEq:
		return l.Compare(r) == 0, nil
	case OpNe:
		return l.Compare(r) != 0, nil
	case OpLt:
		return l.Compare(r) < 0, nil
	case OpLe:
		return l.Compare(r) <= 0, nil
	case OpGt:
		return l.Compare(r) > 0, nil
	case OpGe:
		return l.Compare(r) >= 0, nil
	case OpContains:
		return strings.Contains(l.AsString(), r.AsString()), nil
	case OpPrefix:
		return strings.HasPrefix(l.AsString(), r.AsString()), nil
	default:
		return false, fmt.Errorf("query: unknown operator %v", f.Op)
	}
}

func (f Filter) String() string {
	return fmt.Sprintf("%s %s %s", f.Left, f.Op, f.Right)
}

// CQ is a conjunctive query with filters: head variables, a conjunction of
// atoms, and comparison conditions. An empty Head makes the query Boolean.
type CQ struct {
	Head    []string
	Atoms   []Atom
	Filters []Filter
}

func (q CQ) String() string {
	parts := make([]string, 0, len(q.Atoms)+len(q.Filters))
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	for _, f := range q.Filters {
		parts = append(parts, f.String())
	}
	return fmt.Sprintf("q(%s) :- %s", strings.Join(q.Head, ", "), strings.Join(parts, ", "))
}

// Validate checks that the query is safe: every head and filter variable
// occurs in some atom.
func (q CQ) Validate() error {
	bound := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			bound[v] = true
		}
	}
	for _, h := range q.Head {
		if !bound[h] {
			return fmt.Errorf("query: head variable %q not bound by any atom", h)
		}
	}
	for _, f := range q.Filters {
		if !bound[f.Left] {
			return fmt.Errorf("query: filter variable %q not bound by any atom", f.Left)
		}
		if f.Right.IsVar() && !bound[f.Right.Var] {
			return fmt.Errorf("query: filter variable %q not bound by any atom", f.Right.Var)
		}
	}
	return nil
}

// IsHierarchical implements the hierarchy test for self-join-free
// conjunctive queries [Dalvi & Suciu]: for every pair of existential
// variables x, y, the sets of atoms containing x and containing y must be
// nested or disjoint. Hierarchical sjf-CQs are exactly the queries for which
// both PQE and Shapley computation are tractable (the dichotomy of Livshits
// et al.). The result is meaningful only for self-join-free queries.
func (q CQ) IsHierarchical() bool {
	headSet := make(map[string]bool, len(q.Head))
	for _, h := range q.Head {
		headSet[h] = true
	}
	at := make(map[string]map[int]bool)
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			if headSet[v] {
				continue // only existential variables participate
			}
			if at[v] == nil {
				at[v] = make(map[int]bool)
			}
			at[v][i] = true
		}
	}
	vars := make([]string, 0, len(at))
	for v := range at {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			x, y := at[vars[i]], at[vars[j]]
			if !nestedOrDisjoint(x, y) {
				return false
			}
		}
	}
	return true
}

func nestedOrDisjoint(x, y map[int]bool) bool {
	inter, onlyX, onlyY := 0, 0, 0
	for a := range x {
		if y[a] {
			inter++
		} else {
			onlyX++
		}
	}
	for a := range y {
		if !x[a] {
			onlyY++
		}
	}
	return inter == 0 || onlyX == 0 || onlyY == 0
}

// UCQ is a union of conjunctive queries with identical head arity.
type UCQ struct {
	Disjuncts []CQ
}

// NewUCQ builds a UCQ, validating arity agreement and safety.
func NewUCQ(disjuncts ...CQ) (*UCQ, error) {
	if len(disjuncts) == 0 {
		return nil, fmt.Errorf("query: UCQ needs at least one disjunct")
	}
	arity := len(disjuncts[0].Head)
	for i, d := range disjuncts {
		if len(d.Head) != arity {
			return nil, fmt.Errorf("query: disjunct %d has head arity %d, want %d", i, len(d.Head), arity)
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("query: disjunct %d: %w", i, err)
		}
	}
	return &UCQ{Disjuncts: disjuncts}, nil
}

// Arity returns the head arity.
func (u *UCQ) Arity() int { return len(u.Disjuncts[0].Head) }

// IsBoolean reports whether the query has an empty head.
func (u *UCQ) IsBoolean() bool { return u.Arity() == 0 }

// NumAtoms returns the total number of atoms (joined tables counting
// repetitions) across disjuncts.
func (u *UCQ) NumAtoms() int {
	n := 0
	for _, d := range u.Disjuncts {
		n += len(d.Atoms)
	}
	return n
}

// NumFilters returns the total number of filter conditions plus constant
// selections embedded in atoms.
func (u *UCQ) NumFilters() int {
	n := 0
	for _, d := range u.Disjuncts {
		n += len(d.Filters)
		for _, a := range d.Atoms {
			for _, t := range a.Args {
				if !t.IsVar() {
					n++
				}
			}
		}
	}
	return n
}

func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}
