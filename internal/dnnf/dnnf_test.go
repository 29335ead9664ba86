package dnnf

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
)

func TestBuilderFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Lit(1)
	if got := b.And(x, b.True()); got != x {
		t.Error("And(x, true) != x")
	}
	if got := b.And(x, b.False()); got != b.False() {
		t.Error("And(x, false) != false")
	}
	if got := b.Or(x, b.False()); got != x {
		t.Error("Or(x, false) != x")
	}
	if got := b.Or(); got != b.False() {
		t.Error("Or() != false")
	}
	if got := b.And(); got != b.True() {
		t.Error("And() != true")
	}
}

func TestBuilderRejectsNonDecomposable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And over overlapping supports did not panic")
		}
	}()
	b := NewBuilder()
	b.And(b.Lit(1), b.Lit(-1))
}

// TestBuilderRejectsForeignChild checks that And, Or and Decision panic on
// a child built by another builder, whose support indexes that builder's
// variables and whose ID keys that builder's unique tables.
func TestBuilderRejectsForeignChild(t *testing.T) {
	b, other := NewBuilder(), NewBuilder()
	b.Lit(2) // give the two builders different variable indexes
	foreign := other.And(other.Lit(1), other.Lit(3))
	for name, build := range map[string]func(){
		"And":          func() { b.And(b.Lit(2), foreign) },
		"Or":           func() { b.Or(b.Lit(-2), foreign) },
		"Decision":     func() { b.Decision(2, foreign, b.Lit(4)) },
		"foreign leaf": func() { b.And(b.Lit(2), other.Lit(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over a child of another builder did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestDecisionNode(t *testing.T) {
	b := NewBuilder()
	// f = (x1 ∧ x2) ∨ (¬x1 ∧ x3)
	n := b.Decision(1, b.Lit(2), b.Lit(3))
	if n.Kind != KindOr || n.Decision != 1 {
		t.Fatalf("Decision produced %v with decision %d", n.Kind, n.Decision)
	}
	cases := []struct {
		a    map[int]bool
		want bool
	}{
		{map[int]bool{1: true, 2: true}, true},
		{map[int]bool{1: true, 2: false, 3: true}, false},
		{map[int]bool{1: false, 3: true}, true},
		{map[int]bool{1: false, 3: false}, false},
	}
	for _, c := range cases {
		if Eval(n, c.a) != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.a, !c.want, c.want)
		}
	}
	if err := Validate(n, 10); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCountModelsSmall(t *testing.T) {
	b := NewBuilder()
	// (x1 ∧ x2) ∨ (¬x1 ∧ x3): models over {1,2,3}:
	// 110, 111, 001, 011 → 4.
	n := b.Decision(1, b.Lit(2), b.Lit(3))
	if got := CountModels(n, []int{1, 2, 3}); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("CountModels = %v, want 4", got)
	}
	// Over a larger universe each extra variable doubles the count.
	if got := CountModels(n, []int{1, 2, 3, 4, 5}); got.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("CountModels over 5 vars = %v, want 16", got)
	}
}

func TestWMC(t *testing.T) {
	b := NewBuilder()
	n := b.Decision(1, b.Lit(2), b.Lit(3))
	half := big.NewRat(1, 2)
	// With all probabilities 1/2 over support {1,2,3}: 4/8 = 1/2.
	got := WMC(n, func(v int) *big.Rat { return half })
	if got.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("WMC = %v, want 1/2", got)
	}
	// Pr[x1]=1 forces x2: expect 1·Pr[x2] = 1/3 with Pr[x2]=1/3.
	got = WMC(n, func(v int) *big.Rat {
		switch v {
		case 1:
			return big.NewRat(1, 1)
		case 2:
			return big.NewRat(1, 3)
		default:
			return half
		}
	})
	if got.Cmp(big.NewRat(1, 3)) != 0 {
		t.Errorf("WMC = %v, want 1/3", got)
	}
}

// TestCompileAgainstBruteForce compiles random CNFs and cross-checks the
// model count, the d-D structural properties, and pointwise equivalence.
func TestCompileAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		f := randomCNF(rng, 1+rng.Intn(6), rng.Intn(8))
		n, stats, err := Compile(context.Background(), f, Options{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v (%v)", trial, err, stats)
		}
		if err := Validate(n, 12); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		universe := f.Vars()
		want := bruteCount(f, universe)
		got := CountModels(n, universe)
		if got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("trial %d: model count %v, want %d\nformula: %v", trial, got, want, f.Clauses)
		}
		// Pointwise check.
		assign := make(map[int]bool)
		for mask := 0; mask < 1<<len(universe); mask++ {
			for i, v := range universe {
				assign[v] = mask&(1<<i) != 0
			}
			if Eval(n, assign) != f.Eval(assign) {
				t.Fatalf("trial %d: compiled circuit differs from CNF at %v", trial, assign)
			}
		}
	}
}

func TestCompileUnsat(t *testing.T) {
	f := &cnf.Formula{Clauses: []cnf.Clause{{1}, {-1}}, Aux: map[int]bool{}, MaxVar: 1}
	n, _, err := Compile(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindFalse {
		t.Errorf("unsat CNF compiled to %v, want false", n.Kind)
	}
}

func TestCompileEmptyAndTautology(t *testing.T) {
	empty := &cnf.Formula{Aux: map[int]bool{}}
	n, _, err := Compile(context.Background(), empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindTrue {
		t.Errorf("empty CNF compiled to %v, want true", n.Kind)
	}
	taut := &cnf.Formula{Clauses: []cnf.Clause{{1, -1}}, Aux: map[int]bool{}, MaxVar: 1}
	n, _, err = Compile(context.Background(), taut, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindTrue {
		t.Errorf("tautology compiled to %v, want true", n.Kind)
	}
}

func TestCompileWithoutCacheMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		f := randomCNF(rng, 1+rng.Intn(5), rng.Intn(6))
		universe := f.Vars()
		a, _, err := Compile(context.Background(), f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Compile(context.Background(), f, Options{DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := CountModels(a, universe), CountModels(b, universe)
		if ca.Cmp(cb) != 0 {
			t.Fatalf("trial %d: cache on/off disagree: %v vs %v", trial, ca, cb)
		}
	}
}

func TestCompileNodeBudget(t *testing.T) {
	// MaxNodes 1 is below even the builder's two constant nodes, so any
	// nonempty compilation must report budget exhaustion.
	f := &cnf.Formula{Clauses: []cnf.Clause{{1, 2}, {-1, 2}}, Aux: map[int]bool{}, MaxVar: 2}
	_, _, err := Compile(context.Background(), f, Options{MaxNodes: 1})
	if err != ErrNodeBudget {
		t.Errorf("err = %v, want ErrNodeBudget", err)
	}
}

func TestConditionPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		f := randomCNF(rng, 1+rng.Intn(5), rng.Intn(6))
		n, _, err := Compile(context.Background(), f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		universe := f.Vars()
		if len(universe) == 0 {
			continue
		}
		v := universe[rng.Intn(len(universe))]
		val := rng.Intn(2) == 0
		b := NewBuilder()
		cond := Condition(b, n, map[int]bool{v: val})
		assign := make(map[int]bool)
		for mask := 0; mask < 1<<len(universe); mask++ {
			for i, u := range universe {
				assign[u] = mask&(1<<i) != 0
			}
			if assign[v] != val {
				continue
			}
			if Eval(cond, assign) != Eval(n, assign) {
				t.Fatalf("trial %d: conditioning on %d=%v changed semantics", trial, v, val)
			}
		}
	}
}

// TestEliminateAux verifies Lemma 4.6 end to end: circuit → Tseytin →
// compile → eliminate, then compare against the original circuit pointwise
// and check the d-D structural properties. The compiler branches on facts
// first, and propagation leaves every component of a Tseytin CNF a fact to
// branch on, so no ∨-node of a compiled Tseytin circuit decides an
// auxiliary.
func TestEliminateAux(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		cb := circuit.NewBuilder()
		c := randomBoolCircuit(rng, cb, 1+rng.Intn(5), 3)
		orig := circuit.Vars(c)
		f := cnf.Tseytin(c)
		compiled, _, err := Compile(context.Background(), f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		Visit(compiled, func(m *Node) {
			if m.Kind == KindOr && f.Aux[m.Decision] {
				t.Fatalf("trial %d: a decision node branches on auxiliary %d", trial, m.Decision)
			}
		})
		reduced := EliminateAux(compiled, func(v int) bool { return f.Aux[v] })
		for _, v := range reduced.Vars() {
			if f.Aux[v] {
				t.Fatalf("trial %d: auxiliary variable %d survives elimination", trial, v)
			}
		}
		if err := Validate(reduced, 12); err != nil {
			t.Fatalf("trial %d: reduced circuit invalid: %v", trial, err)
		}
		assign := make(map[int]bool)
		cassign := make(map[circuit.Var]bool)
		for mask := 0; mask < 1<<len(orig); mask++ {
			for i, v := range orig {
				val := mask&(1<<i) != 0
				assign[int(v)] = val
				cassign[v] = val
			}
			if Eval(reduced, assign) != circuit.Eval(c, cassign) {
				t.Fatalf("trial %d: reduced circuit differs from original at %v", trial, assign)
			}
		}
	}
}

func TestSizeHelpers(t *testing.T) {
	b := NewBuilder()
	n := b.Decision(1, b.Lit(2), b.Lit(3))
	if Size(n) <= 0 || NumEdges(n) <= 0 {
		t.Errorf("Size = %d NumEdges = %d; want positive", Size(n), NumEdges(n))
	}
}

// --- helpers ---

func bruteCount(f *cnf.Formula, universe []int) int {
	count := 0
	assign := make(map[int]bool)
	for mask := 0; mask < 1<<len(universe); mask++ {
		for i, v := range universe {
			assign[v] = mask&(1<<i) != 0
		}
		if f.Eval(assign) {
			count++
		}
	}
	return count
}

func randomCNF(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := &cnf.Formula{Aux: map[int]bool{}, MaxVar: nVars}
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		clause := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := 1 + rng.Intn(nVars)
			l := cnf.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause = append(clause, l)
		}
		f.Clauses = append(f.Clauses, clause)
	}
	return f
}

// randomBoolCircuit builds a random circuit over variables 1..nVars with
// negations at the leaves.
func randomBoolCircuit(rng *rand.Rand, b *circuit.Builder, nVars, depth int) *circuit.Node {
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
		cs[i] = randomBoolCircuit(rng, b, nVars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return b.And(cs...)
	}
	return b.Or(cs...)
}
