package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// maxLineageOps bounds a decoded lineage program, keeping every fuzzed
// compile small.
const maxLineageOps = 64

// decodeLineage builds a lineage circuit over facts 1..10 from a postfix
// program of at most maxLineageOps bytes: an op with op%4 == 0 pushes fact
// 1 + op/4%10, 1 and 2 replace the top two entries by their ∧ and ∨, and 3
// negates the top; ops the stack cannot serve are skipped. What is left on
// the stack is ∨-ed together.
func decodeLineage(b *circuit.Builder, prog []byte) *circuit.Node {
	var stack []*circuit.Node
	for i, op := range prog {
		if i == maxLineageOps {
			break
		}
		n := len(stack)
		switch op % 4 {
		case 0:
			stack = append(stack, b.Variable(circuit.Var(1+int(op/4)%10)))
		case 1, 2:
			if n < 2 {
				continue
			}
			if op%4 == 1 {
				stack[n-2] = b.And(stack[n-2], stack[n-1])
			} else {
				stack[n-2] = b.Or(stack[n-2], stack[n-1])
			}
			stack = stack[:n-1]
		case 3:
			if n > 0 {
				stack[n-1] = b.Not(stack[n-1])
			}
		}
	}
	return b.Or(stack...)
}

// encodeLineage renders a circuit over facts 1..10 as a decodeLineage
// program (n-ary gates fold left), so the random generators seed the fuzz
// corpus.
func encodeLineage(n *circuit.Node) []byte {
	switch n.Kind {
	case circuit.KindVar:
		return []byte{byte((int(n.Var) - 1) % 10 * 4)}
	case circuit.KindNot:
		return append(encodeLineage(n.Children[0]), 3)
	case circuit.KindAnd, circuit.KindOr:
		op := byte(1)
		if n.Kind == circuit.KindOr {
			op = 2
		}
		prog := encodeLineage(n.Children[0])
		for _, c := range n.Children[1:] {
			prog = append(append(prog, encodeLineage(c)...), op)
		}
		return prog
	}
	return nil
}

// cnfLineage is a CNF as a lineage circuit, an ∧ of ∨s of literals.
func cnfLineage(b *circuit.Builder, rng *rand.Rand) *circuit.Node {
	f := randomTestCNF(rng, 2+rng.Intn(6), 1+rng.Intn(6))
	clauses := make([]*circuit.Node, len(f.Clauses))
	for i, cl := range f.Clauses {
		lits := make([]*circuit.Node, len(cl))
		for j, l := range cl {
			lits[j] = b.Variable(circuit.Var(l.Var()))
			if !l.Positive() {
				lits[j] = b.Not(lits[j])
			}
		}
		clauses[i] = b.Or(lits...)
	}
	return b.And(clauses...)
}

// FuzzValueCache checks that the value cache serves a lineage only what a
// cold run computes. The input decodes to two lineages of up to 10 facts:
// data[0] holds the flags (bit 0: the second lineage renames the first's
// facts by a permutation seeded from the remaining bits, else it decodes
// from its own program; bit 1: the second lineage is explained under a node
// budget of 8 + 4·(data[0]>>2)), data[1] the length of the first program,
// and the rest the programs. Both lineages are explained through one fresh
// cache and again cold, and each warm result must fail the budget exactly
// when its cold one does and otherwise be big.Rat-identical to it, key set
// included: a false hit between non-isomorphic lineages, a renamed hit that
// maps values to the wrong facts, or a hit that decides the budget unlike
// the caller's own compile, fails. Every endo also carries fact 99, which
// no lineage mentions and which must get an exact 0.
func FuzzValueCache(f *testing.F) {
	rng := rand.New(rand.NewSource(131))
	for i := 0; i < 12; i++ {
		b := circuit.NewBuilder()
		var first, second *circuit.Node
		if i%2 == 0 {
			first, second = randomMonotoneCircuit(rng, b, 2+rng.Intn(5), 3), randomMonotoneCircuit(rng, b, 2+rng.Intn(5), 3)
		} else {
			first, second = cnfLineage(b, rng), cnfLineage(b, rng)
		}
		prog := encodeLineage(first)
		if len(prog) > maxLineageOps {
			continue
		}
		flags := byte(rng.Intn(256))
		f.Add(append([]byte{flags, byte(len(prog))}, append(prog, encodeLineage(second)...)...))
	}
	f.Add([]byte{1, 3, 0, 4, 1})    // x1 ∧ x2 and a renamed copy
	f.Add([]byte{0, 3, 0, 4, 2, 0}) // x1 ∨ x2 and x1: no shared key

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		flags, n := data[0], int(data[1])
		prog := data[2:]
		if n > len(prog) {
			n = len(prog)
		}
		b := circuit.NewBuilder()
		lineages := []*circuit.Node{decodeLineage(b, prog[:n])}
		if flags&1 != 0 {
			targets := rand.New(rand.NewSource(int64(flags >> 2))).Perm(20)
			m := make(map[circuit.Var]circuit.Var, 10)
			for v := 1; v <= 10; v++ {
				m[circuit.Var(v)] = circuit.Var(targets[v-1] + 1)
			}
			lineages = append(lineages, renameCircuit(b, lineages[0], m))
		} else {
			lineages = append(lineages, decodeLineage(b, prog[n:]))
		}

		cache := NewValueCache(4)
		for i, elin := range lineages {
			endo := append(endoOf(elin), 99)
			serial := PipelineOptions{Workers: 1}
			if i == 1 && flags&2 != 0 {
				serial.CompileMaxNodes = 8 + 4*int(flags>>2)
			}
			cold, coldErr := ExplainCircuit(ctx, elin, endo, serial)
			serial.Cache = cache
			warm, warmErr := ExplainCircuit(ctx, elin, endo, serial)
			if coldErr != nil || warmErr != nil {
				if !errors.Is(coldErr, dnnf.ErrNodeBudget) || !errors.Is(warmErr, coldErr) {
					t.Fatalf("lineage %d (%s): warm err = %v, cold err = %v", i, warm.Cache, warmErr, coldErr)
				}
				continue
			}
			if len(warm.Values) != len(cold.Values) {
				t.Fatalf("lineage %d (%s): %d warm values, %d cold", i, warm.Cache, len(warm.Values), len(cold.Values))
			}
			for fact, want := range cold.Values {
				if got := warm.Values[fact]; got == nil || got.Cmp(want) != 0 {
					t.Fatalf("lineage %d (%s): fact %d = %v, cold %v", i, warm.Cache, fact, got, want)
				}
			}
			if v := warm.Values[db.FactID(99)]; v.Sign() != 0 {
				t.Fatalf("lineage %d: absent fact 99 = %v, want 0", i, v)
			}
		}
	})
}
