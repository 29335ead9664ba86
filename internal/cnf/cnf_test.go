package cnf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// TestTseytinProperties verifies, on random circuits, the three properties
// the paper's architecture relies on (Section 4.2): every satisfying
// assignment of the circuit has exactly one satisfying extension to the
// auxiliary variables, and no non-satisfying assignment has any.
func TestTseytinProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		b := circuit.NewBuilder()
		nVars := 1 + rng.Intn(4)
		c := randomCircuit(rng, b, nVars, 3)
		f := Tseytin(c)

		orig := circuit.Vars(c)
		var aux []int
		for _, v := range f.Vars() {
			if f.Aux[v] {
				aux = append(aux, v)
			}
		}
		if len(aux) > 14 {
			continue // keep the brute force tractable
		}
		assign := make(map[circuit.Var]bool)
		cnfAssign := make(map[int]bool)
		for mask := 0; mask < 1<<len(orig); mask++ {
			for i, v := range orig {
				val := mask&(1<<i) != 0
				assign[v] = val
				cnfAssign[int(v)] = val
			}
			extensions := 0
			for amask := 0; amask < 1<<len(aux); amask++ {
				for i, v := range aux {
					cnfAssign[v] = amask&(1<<i) != 0
				}
				if f.Eval(cnfAssign) {
					extensions++
				}
			}
			want := 0
			if circuit.Eval(c, assign) {
				want = 1
			}
			if extensions != want {
				t.Fatalf("trial %d: assignment %v has %d satisfying extensions, want %d\ncircuit: %s",
					trial, assign, extensions, want, circuit.String(c))
			}
		}
	}
}

func TestTseytinLinearSize(t *testing.T) {
	b := circuit.NewBuilder()
	// Chain of 50 binary ORs of ANDs: size grows linearly.
	cur := b.Variable(1)
	for i := 2; i <= 50; i++ {
		cur = b.Or(cur, b.And(b.Variable(circuit.Var(i)), b.Variable(circuit.Var(i+100))))
	}
	f := Tseytin(cur)
	gates := circuit.Size(cur)
	if f.NumClauses() > 5*gates+10 {
		t.Errorf("Tseytin produced %d clauses for %d gates; expected linear growth",
			f.NumClauses(), gates)
	}
}

func TestTseytinConstantCircuits(t *testing.T) {
	b := circuit.NewBuilder()
	fTrue := Tseytin(b.True())
	// Unique aux assignment must satisfy.
	sat := 0
	for mask := 0; mask < 1<<len(fTrue.Vars()); mask++ {
		assign := make(map[int]bool)
		for i, v := range fTrue.Vars() {
			assign[v] = mask&(1<<i) != 0
		}
		if fTrue.Eval(assign) {
			sat++
		}
	}
	if sat != 1 {
		t.Errorf("Tseytin(true) has %d models, want 1", sat)
	}

	fFalse := Tseytin(b.False())
	for mask := 0; mask < 1<<len(fFalse.Vars()); mask++ {
		assign := make(map[int]bool)
		for i, v := range fFalse.Vars() {
			assign[v] = mask&(1<<i) != 0
		}
		if fFalse.Eval(assign) {
			t.Fatal("Tseytin(false) is satisfiable")
		}
	}
}

func TestLitBasics(t *testing.T) {
	l := Lit(5)
	if l.Var() != 5 || !l.Positive() || l.Neg() != Lit(-5) {
		t.Errorf("Lit(5) basics broken: var=%d pos=%v neg=%d", l.Var(), l.Positive(), l.Neg())
	}
	m := Lit(-3)
	if m.Var() != 3 || m.Positive() || m.Neg() != Lit(3) {
		t.Errorf("Lit(-3) basics broken: var=%d pos=%v neg=%d", m.Var(), m.Positive(), m.Neg())
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := &Formula{
		Clauses: []Clause{{1, -2, 3}, {-1}, {2, 3}},
		Aux:     map[int]bool{},
		MaxVar:  3,
	}
	var buf bytes.Buffer
	if err := f.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Clauses) != len(f.Clauses) {
		t.Fatalf("round trip clause count = %d, want %d", len(g.Clauses), len(f.Clauses))
	}
	for i := range f.Clauses {
		if len(g.Clauses[i]) != len(f.Clauses[i]) {
			t.Fatalf("clause %d length mismatch", i)
		}
		for j := range f.Clauses[i] {
			if g.Clauses[i][j] != f.Clauses[i][j] {
				t.Fatalf("clause %d literal %d = %d, want %d", i, j, g.Clauses[i][j], f.Clauses[i][j])
			}
		}
	}
	if g.MaxVar != 3 {
		t.Errorf("MaxVar = %d, want 3", g.MaxVar)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"1 2 0",                             // clause before header
		"p cnf x 2\n1 0",                    // bad var count
		"p cnf 2 1\n1 a 0",                  // bad literal
		"p dnf 2 1\n1 2 0",                  // wrong format tag
		"p cnf 2 1 extra\n",                 // malformed problem line field count is 5
		"p cnf 2 1\n-9223372036854775808 0", // variable overflows int
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("ParseDIMACS(%q) succeeded, want error", in)
		}
	}
}

func TestParseDIMACSSkipsComments(t *testing.T) {
	in := "c a comment\np cnf 2 1\nc another\n1 -2 0\n"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 2 {
		t.Fatalf("parsed %v, want one 2-literal clause", f.Clauses)
	}
}

func TestFormulaEval(t *testing.T) {
	f := &Formula{Clauses: []Clause{{1, 2}, {-1, 3}}}
	if !f.Eval(map[int]bool{1: true, 3: true}) {
		t.Error("satisfying assignment rejected")
	}
	if f.Eval(map[int]bool{1: true, 3: false}) {
		t.Error("falsifying assignment accepted")
	}
}

func randomCircuit(rng *rand.Rand, b *circuit.Builder, nVars, depth int) *circuit.Node {
	if depth == 0 || rng.Intn(4) == 0 {
		v := b.Variable(circuit.Var(1 + rng.Intn(nVars)))
		if rng.Intn(4) == 0 {
			return b.Not(v)
		}
		return v
	}
	n := 2 + rng.Intn(2)
	cs := make([]*circuit.Node, n)
	for i := range cs {
		cs[i] = randomCircuit(rng, b, nVars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return b.And(cs...)
	}
	return b.Or(cs...)
}

// TestTseytinCountingReserved checks that auxiliaries are numbered above
// both the reserved range and the circuit's variables, whether reserved
// covers the variables (one walk) or not (a second walk), and that the
// variables are counted either way.
func TestTseytinCountingReserved(t *testing.T) {
	b := circuit.NewBuilder()
	c := b.And(b.Variable(2), b.Or(b.Variable(7), b.Variable(4)))
	base := Tseytin(c)
	for _, reserved := range []int{0, 5, 7, 10} {
		f, vars := TseytinCounting(c, reserved)
		if vars != 3 {
			t.Errorf("reserved %d: counted %d variables, want 3", reserved, vars)
		}
		top := max(reserved, 7)
		if f.MaxVar != top+len(f.Aux) || len(f.Aux) != len(base.Aux) {
			t.Errorf("reserved %d: MaxVar %d with %d auxiliaries, want %d with %d",
				reserved, f.MaxVar, len(f.Aux), top+len(base.Aux), len(base.Aux))
		}
		for v := top + 1; v <= f.MaxVar; v++ {
			if !f.Aux[v] {
				t.Errorf("reserved %d: variable %d not auxiliary", reserved, v)
			}
		}
		// The same clauses as Tseytin's, with the auxiliaries shifted.
		shift := Lit(top - 7)
		if len(f.Clauses) != len(base.Clauses) {
			t.Fatalf("reserved %d: %d clauses, want %d", reserved, len(f.Clauses), len(base.Clauses))
		}
		for i, cl := range base.Clauses {
			for j, l := range cl {
				want := l
				if base.Aux[l.Var()] {
					if l > 0 {
						want = l + shift
					} else {
						want = l - shift
					}
				}
				if f.Clauses[i][j] != want {
					t.Errorf("reserved %d: clause %d is %v, want %v shifted by %d", reserved, i, f.Clauses[i], cl, shift)
					break
				}
			}
		}
	}
}
