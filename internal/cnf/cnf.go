// Package cnf provides conjunctive normal form formulas, the Tseytin
// transformation from Boolean circuits to CNF, and DIMACS serialization.
//
// The Tseytin transformation (Section 4.2 of the paper) turns the
// endogenous-lineage circuit C' into a CNF φ of size linear in |C'| with the
// three properties the paper relies on: (1) the variables of φ are those of
// C' plus fresh auxiliary variables Z; (2) every satisfying assignment of C'
// extends to exactly one assignment of Z satisfying φ; and (3) no
// non-satisfying assignment of C' has any satisfying extension.
package cnf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Lit is a literal: +v for the positive literal of variable v, -v for the
// negative literal. Variables are positive integers.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is positive.
func (l Lit) Positive() bool { return l > 0 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Clause is a disjunction of literals.
type Clause []Lit

func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = strconv.Itoa(int(l))
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// Formula is a CNF formula together with bookkeeping distinguishing the
// original circuit variables from Tseytin auxiliaries.
type Formula struct {
	Clauses []Clause
	// Aux marks variables introduced by the Tseytin transformation.
	Aux map[int]bool
	// MaxVar is the largest variable index in use.
	MaxVar int
}

// Vars returns the sorted set of variables occurring in the formula.
func (f *Formula) Vars() []int {
	set := make(map[int]bool)
	for _, c := range f.Clauses {
		for _, l := range c {
			set[l.Var()] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// Eval evaluates the formula under the assignment (absent variables are
// false).
func (f *Formula) Eval(assign map[int]bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()] == l.Positive() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func (f *Formula) String() string {
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Tseytin converts the circuit rooted at root into an equisatisfiable CNF.
// Original circuit variables keep their numbering (circuit.Var values);
// every non-leaf gate receives a fresh auxiliary variable greater than any
// original variable. A final unit clause asserts the root gate.
func Tseytin(root *circuit.Node) *Formula {
	return TseytinReserving(root, 0)
}

// TseytinReserving is Tseytin with the variable range 1..reserved set aside:
// auxiliary variables are numbered strictly above both the circuit's
// variables and `reserved`. Callers translating database lineage pass the
// maximum fact ID so that auxiliaries can never collide with facts that
// happen not to appear in this particular lineage.
func TseytinReserving(root *circuit.Node, reserved int) *Formula {
	f, _ := TseytinCounting(root, reserved)
	return f
}

// TseytinCounting is TseytinReserving that also returns the number of
// distinct variables in the circuit. It walks the circuit once when reserved
// covers every circuit variable, as a lineage's maximum fact ID does, and
// otherwise walks again with the auxiliaries numbered above the largest
// variable the first walk found. A Builder interns variable gates, so a walk
// meets each variable once.
func TseytinCounting(root *circuit.Node, reserved int) (*Formula, int) {
	clauses, aux, maxVar, vars := tseytinFrom(root, reserved)
	top := reserved
	if maxVar > reserved {
		top = maxVar
		clauses, aux, _, vars = tseytinFrom(root, top)
	}
	f := &Formula{Clauses: clauses, Aux: make(map[int]bool, aux), MaxVar: top + aux}
	for v := top + 1; v <= f.MaxVar; v++ {
		f.Aux[v] = true
	}
	return f, vars
}

// tseytinFrom runs the Tseytin transformation of root with the k-th fresh
// auxiliary variable numbered base+k. It returns the clauses, the number of
// auxiliaries, the largest circuit variable (0 if none) and the number of
// variable gates met.
func tseytinFrom(root *circuit.Node, base int) (clauses []Clause, aux, maxVar, vars int) {
	lits := make(map[int]Lit) // node ID -> literal standing for the gate
	fresh := func() Lit {
		aux++
		return Lit(base + aux)
	}

	var rec func(n *circuit.Node) Lit
	rec = func(n *circuit.Node) Lit {
		if l, ok := lits[n.ID()]; ok {
			return l
		}
		var l Lit
		switch n.Kind {
		case circuit.KindVar:
			l = Lit(n.Var)
			maxVar = max(maxVar, int(n.Var))
			vars++
		case circuit.KindConst:
			// Encode constants with a fresh defined variable so that
			// the exactly-one-extension property holds uniformly.
			l = fresh()
			if n.Val {
				clauses = append(clauses, Clause{l})
			} else {
				// A false gate is forced off; if it is the root, the final
				// unit clause makes the formula unsatisfiable, as expected.
				clauses = append(clauses, Clause{l.Neg()})
			}
		case circuit.KindNot:
			c := rec(n.Children[0])
			l = fresh()
			// g <-> ¬c
			clauses = append(clauses,
				Clause{l.Neg(), c.Neg()},
				Clause{l, c})
		case circuit.KindAnd:
			cs := make([]Lit, len(n.Children))
			for i, ch := range n.Children {
				cs[i] = rec(ch)
			}
			l = fresh()
			// g -> ci for all i; (c1 ∧ ... ∧ ck) -> g.
			long := make(Clause, 0, len(cs)+1)
			long = append(long, l)
			for _, c := range cs {
				clauses = append(clauses, Clause{l.Neg(), c})
				long = append(long, c.Neg())
			}
			clauses = append(clauses, long)
		case circuit.KindOr:
			cs := make([]Lit, len(n.Children))
			for i, ch := range n.Children {
				cs[i] = rec(ch)
			}
			l = fresh()
			// ci -> g for all i; g -> (c1 ∨ ... ∨ ck).
			long := make(Clause, 0, len(cs)+1)
			long = append(long, l.Neg())
			for _, c := range cs {
				clauses = append(clauses, Clause{l, c.Neg()})
				long = append(long, c)
			}
			clauses = append(clauses, long)
		}
		lits[n.ID()] = l
		return l
	}

	rootLit := rec(root)
	clauses = append(clauses, Clause{rootLit})
	return clauses, aux, maxVar, vars
}

// WriteDIMACS writes the formula in DIMACS CNF format.
func (f *Formula) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.MaxVar, len(f.Clauses)); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", int(l)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS CNF file. Comment lines (c ...) are skipped.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	f := &Formula{Aux: make(map[int]bool)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	sawHeader := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("cnf: malformed problem line %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cnf: bad variable count in %q: %v", line, err)
			}
			f.MaxVar = nv
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("cnf: clause before problem line: %q", line)
		}
		var clause Clause
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("cnf: bad literal %q: %v", tok, err)
			}
			if n == math.MinInt {
				// Its variable, -n, does not fit in an int.
				return nil, fmt.Errorf("cnf: literal %q out of range", tok)
			}
			if n == 0 {
				break
			}
			clause = append(clause, Lit(n))
			if v := Lit(n).Var(); v > f.MaxVar {
				f.MaxVar = v
			}
		}
		if len(clause) > 0 {
			f.Clauses = append(f.Clauses, clause)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}
