package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// sparseIDs and goldenCircuit are the generators of internal/dnnf's
// compile golden test: n distinct variable IDs from a wide range, and a
// random circuit over them with negations at the leaves.
func sparseIDs(rng *rand.Rand, n int) []int {
	seen := make(map[int]bool, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		v := 1 + rng.Intn(1<<20)
		if rng.Intn(8) == 0 {
			v += 1 << 40
		}
		if !seen[v] {
			seen[v] = true
			ids = append(ids, v)
		}
	}
	return ids
}

func goldenCircuit(rng *rand.Rand, b *circuit.Builder, ids []int, depth int) *circuit.Node {
	if depth == 0 || rng.Intn(4) == 0 {
		v := b.Variable(circuit.Var(ids[rng.Intn(len(ids))]))
		if rng.Intn(4) == 0 {
			return b.Not(v)
		}
		return v
	}
	cs := make([]*circuit.Node, 2+rng.Intn(2))
	for i := range cs {
		cs[i] = goldenCircuit(rng, b, ids, depth-1)
	}
	if rng.Intn(2) == 0 {
		return b.And(cs...)
	}
	return b.Or(cs...)
}

// Allocation ceilings of the exact pipeline's stages on allocGateCNF: the
// counts measured when they were set, plus 10%.
const (
	compileAllocCeiling   = 1133
	eliminateAllocCeiling = 240
	gradientAllocCeiling  = 101
)

// allocGateCNF is the Tseytin CNF of one seeded golden circuit (101
// clauses; 559 nodes compiled, 172 after elimination), and the circuit's
// variables as endogenous facts.
func allocGateCNF() (*cnf.Formula, []db.FactID) {
	rng := rand.New(rand.NewSource(7))
	root := goldenCircuit(rng, circuit.NewBuilder(), sparseIDs(rng, 4+rng.Intn(8)), 4+rng.Intn(2))
	var endo []db.FactID
	for _, v := range circuit.Vars(root) {
		endo = append(endo, db.FactID(v))
	}
	return cnf.Tseytin(root), endo
}

// TestExactPipelineAllocations gates the allocations of the exact pipeline's
// stages — compilation at one worker, auxiliary elimination (Lemma 4.6) and
// the gradient form of Algorithm 1 — on a fixed circuit of a few hundred
// nodes. Allocation counts are deterministic, so a change that makes a
// stage allocate per node or per decision again trips its ceiling.
func TestExactPipelineAllocations(t *testing.T) {
	ctx := context.Background()
	f, endo := allocGateCNF()
	isAux := func(v int) bool { return f.Aux[v] }
	compiled, _, err := dnnf.Compile(ctx, f, dnnf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reduced := dnnf.EliminateAux(compiled, isAux)
	t.Logf("clauses=%d nodes=%d reduced=%d facts=%d", len(f.Clauses), dnnf.Size(compiled), dnnf.Size(reduced), len(endo))
	for _, stage := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"compile", compileAllocCeiling, func() {
			if _, _, err := dnnf.Compile(ctx, f, dnnf.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"eliminate", eliminateAllocCeiling, func() { dnnf.EliminateAux(compiled, isAux) }},
		{"gradient", gradientAllocCeiling, func() {
			if _, err := shapleyAllGradient(ctx, reduced, endo); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(5, stage.run)
		t.Logf("%s: %.0f allocations", stage.name, got)
		if got > stage.ceiling {
			t.Errorf("%s allocates %.0f times, over its ceiling of %.0f", stage.name, got, stage.ceiling)
		}
	}
}
