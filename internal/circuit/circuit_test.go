package circuit

import (
	"math/rand"
	"testing"
)

func TestBuilderConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Variable(1)
	if got := b.And(x, b.True()); got != x {
		t.Errorf("And(x, true) = %v, want x", String(got))
	}
	if got := b.And(x, b.False()); got != b.False() {
		t.Errorf("And(x, false) = %v, want false", String(got))
	}
	if got := b.Or(x, b.False()); got != x {
		t.Errorf("Or(x, false) = %v, want x", String(got))
	}
	if got := b.Or(x, b.True()); got != b.True() {
		t.Errorf("Or(x, true) = %v, want true", String(got))
	}
	if got := b.Not(b.Not(x)); got != x {
		t.Errorf("Not(Not(x)) = %v, want x", String(got))
	}
	if got := b.Not(b.True()); got != b.False() {
		t.Errorf("Not(true) = %v, want false", String(got))
	}
	if got := b.And(); got != b.True() {
		t.Errorf("And() = %v, want true", String(got))
	}
	if got := b.Or(); got != b.False() {
		t.Errorf("Or() = %v, want false", String(got))
	}
}

func TestBuilderHashConsing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Variable(1), b.Variable(2)
	if b.And(x, y) != b.And(y, x) {
		t.Error("And not canonicalized across argument order")
	}
	if b.Or(x, y, x) != b.Or(x, y) {
		t.Error("Or does not deduplicate children")
	}
	if b.Variable(1) != x {
		t.Error("Variable not hash-consed")
	}
}

// TestRepeatedAndAllocations: asking again for a gate that exists finds it
// by its key without allocating one, so the lookup costs at most the sorted
// child list.
func TestRepeatedAndAllocations(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Variable(1), b.Variable(2), b.Variable(3)
	g := b.And(z, x, y)
	var got *Node
	allocs := testing.AllocsPerRun(100, func() { got = b.And(y, z, x, y) })
	if got != g {
		t.Fatalf("And(y, z, x, y) = %s, want the existing %s", String(got), String(g))
	}
	if allocs > 1 {
		t.Errorf("a repeated And allocates %v times, want at most 1", allocs)
	}
}

func TestEval(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Variable(1), b.Variable(2), b.Variable(3)
	// f = (x ∧ y) ∨ ¬z
	f := b.Or(b.And(x, y), b.Not(z))
	cases := []struct {
		x, y, z bool
		want    bool
	}{
		{false, false, false, true},
		{false, false, true, false},
		{true, true, true, true},
		{true, false, true, false},
		{true, true, false, true},
	}
	for _, c := range cases {
		got := Eval(f, map[Var]bool{1: c.x, 2: c.y, 3: c.z})
		if got != c.want {
			t.Errorf("Eval(x=%v y=%v z=%v) = %v, want %v", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestVars(t *testing.T) {
	b := NewBuilder()
	f := b.Or(b.And(b.Variable(3), b.Variable(1)), b.Not(b.Variable(2)))
	vars := Vars(f)
	want := []Var{1, 2, 3}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestConditionAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		b := NewBuilder()
		nVars := 2 + rng.Intn(5)
		f := randomCircuit(rng, b, nVars, 4)
		universe := Vars(f)
		if len(universe) == 0 {
			continue
		}
		// Condition on a random subset of variables.
		fix := make(map[Var]bool)
		for _, v := range universe {
			if rng.Intn(2) == 0 {
				fix[v] = rng.Intn(2) == 0
			}
		}
		g := Condition(b, f, fix)
		for _, v := range Vars(g) {
			if _, fixed := fix[v]; fixed {
				t.Fatalf("conditioned variable %d still present", v)
			}
		}
		// Check equivalence on all assignments of the free variables.
		free := Vars(g)
		assign := make(map[Var]bool)
		for mask := 0; mask < 1<<len(universe); mask++ {
			ok := true
			for i, v := range universe {
				val := mask&(1<<i) != 0
				if want, fixed := fix[v]; fixed {
					if val != want {
						ok = false
						break
					}
				}
				assign[v] = val
			}
			if !ok {
				continue
			}
			if Eval(f, assign) != Eval(g, assign) {
				t.Fatalf("trial %d: Condition changed semantics on %v\nf=%s\ng=%s fix=%v free=%v",
					trial, assign, String(f), String(g), fix, free)
			}
		}
	}
}

func TestSizeAndEdges(t *testing.T) {
	b := NewBuilder()
	x, y := b.Variable(1), b.Variable(2)
	shared := b.And(x, y)
	f := b.Or(shared, b.Not(shared))
	// Nodes: x, y, and, not, or = 5.
	if got := Size(f); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
	if got := NumEdges(f); got != 5 {
		t.Errorf("NumEdges = %d, want 5", got)
	}
}

// randomCircuit builds a random circuit over variables 1..nVars with the
// given depth budget.
func randomCircuit(rng *rand.Rand, b *Builder, nVars, depth int) *Node {
	if depth == 0 || rng.Intn(4) == 0 {
		return b.Variable(Var(1 + rng.Intn(nVars)))
	}
	switch rng.Intn(4) {
	case 0:
		return b.Not(randomCircuit(rng, b, nVars, depth-1))
	case 1:
		n := 2 + rng.Intn(2)
		cs := make([]*Node, n)
		for i := range cs {
			cs[i] = randomCircuit(rng, b, nVars, depth-1)
		}
		return b.And(cs...)
	default:
		n := 2 + rng.Intn(2)
		cs := make([]*Node, n)
		for i := range cs {
			cs[i] = randomCircuit(rng, b, nVars, depth-1)
		}
		return b.Or(cs...)
	}
}
