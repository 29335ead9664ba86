package core

// Tests for the canonical (rename-invariant) value cache as seen from the
// Shapley layer: it must leave every Shapley value big.Rat-identical to a
// cold computation.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
)

// renameCircuit rebuilds a lineage circuit with every variable mapped
// through m, preserving structure exactly.
func renameCircuit(b *circuit.Builder, n *circuit.Node, m map[circuit.Var]circuit.Var) *circuit.Node {
	memo := make(map[int]*circuit.Node)
	var rec func(*circuit.Node) *circuit.Node
	rec = func(nd *circuit.Node) *circuit.Node {
		if r, ok := memo[nd.ID()]; ok {
			return r
		}
		var r *circuit.Node
		switch nd.Kind {
		case circuit.KindConst:
			r = b.Const(nd.Val)
		case circuit.KindVar:
			r = b.Variable(m[nd.Var])
		case circuit.KindNot:
			r = b.Not(rec(nd.Children[0]))
		case circuit.KindAnd, circuit.KindOr:
			cs := make([]*circuit.Node, len(nd.Children))
			for i, c := range nd.Children {
				cs[i] = rec(c)
			}
			if nd.Kind == circuit.KindAnd {
				r = b.And(cs...)
			} else {
				r = b.Or(cs...)
			}
		}
		memo[nd.ID()] = r
		return r
	}
	return rec(n)
}

// TestCanonicalCacheShapleyIdenticalAcrossRenaming is the acceptance test
// for rename-invariant caching at the pipeline level: explaining a lineage
// whose facts are a renamed copy of an already-explained one must be a
// renamed hit on the shared cache, and every Shapley value must be
// big.Rat-identical to what a cold computation gives.
func TestCanonicalCacheShapleyIdenticalAcrossRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	hits := 0
	for trial := 0; trial < 40; trial++ {
		cb := circuit.NewBuilder()
		elin := randomMonotoneCircuit(rng, cb, 2+rng.Intn(5), 3)
		endo := endoOf(elin)
		if len(endo) == 0 {
			continue
		}

		// Rename every fact id by a shifted random bijection.
		vars := circuit.Vars(elin)
		targets := make([]circuit.Var, len(vars))
		for i := range targets {
			targets[i] = circuit.Var(20 + i + 1)
		}
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		m := make(map[circuit.Var]circuit.Var, len(vars))
		for i, v := range vars {
			m[v] = targets[i]
		}
		renamed := renameCircuit(circuit.NewBuilder(), elin, m)
		renamedEndo := make([]db.FactID, len(endo))
		for i, f := range endo {
			renamedEndo[i] = db.FactID(m[circuit.Var(f)])
		}

		cache := NewValueCache(8)
		first, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := ExplainCircuit(context.Background(), renamed, renamedEndo, PipelineOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ExplainCircuit(context.Background(), renamed, renamedEndo, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		switch warm.Cache {
		case CacheRenamed:
			hits++
		case CacheIdentical:
			t.Fatalf("trial %d: hit on shifted fact ids reported no renaming", trial)
		}
		valuesIdentical(t, warm.Values, cold.Values, "warm (renamed hit) vs cold pipeline")
		// And the values must equal the original lineage's values pushed
		// through the renaming.
		for f, v := range first.Values {
			rf := db.FactID(m[circuit.Var(f)])
			if w := warm.Values[rf]; w == nil || w.Cmp(v) != 0 {
				t.Fatalf("trial %d: value of renamed fact %d = %v, want %v", trial, rf, warm.Values[rf], v)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no renamed lineage ever hit the canonical cache")
	}
}
