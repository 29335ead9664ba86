package core

// Tests for the canonical (rename-invariant) value cache as seen from the
// Shapley layer: it must leave every Shapley value big.Rat-identical to a
// cold computation.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
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

// TestRenamedHitBudgetIsTheCallers pins a lineage and a renaming of it
// (seed 22 of a seeded search over random circuits and renamings) that
// share a canonical key but compile to different node counts, since the
// freq pick breaks ties by variable number. Under a node budget equal to
// the smaller count, whichever of the two filled the cache, a renamed hit
// for the other must fail or succeed as its own cold compile does, and
// succeed with the cold values.
func TestRenamedHitBudgetIsTheCallers(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	elin := randomMonotoneCircuit(rng, circuit.NewBuilder(), 6+rng.Intn(8), 4)
	vars := circuit.Vars(elin)
	targets := rng.Perm(len(vars))
	m := make(map[circuit.Var]circuit.Var, len(vars))
	for i, v := range vars {
		m[v] = circuit.Var(targets[i] + 1)
	}
	pair := []*circuit.Node{elin, renameCircuit(circuit.NewBuilder(), elin, m)}
	var nodes [2]int
	for i, lin := range pair {
		_, st, err := dnnf.Compile(ctx, TseytinStage(lin, endoOf(lin)), dnnf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = st.CheckedNodes
	}
	if nodes[0] == nodes[1] {
		t.Fatalf("both lineages compile to %d nodes; the pinned pair must differ", nodes[0])
	}
	budget := min(nodes[0], nodes[1])
	for filler, lin := range pair {
		cache := NewValueCache(4)
		if _, err := ExplainCircuit(ctx, lin, endoOf(lin), PipelineOptions{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		caller := pair[1-filler]
		endo := endoOf(caller)
		cold, coldErr := ExplainCircuit(ctx, caller, endo, PipelineOptions{CompileMaxNodes: budget})
		warm, warmErr := ExplainCircuit(ctx, caller, endo, PipelineOptions{CompileMaxNodes: budget, Cache: cache})
		what := fmt.Sprintf("filler %d nodes, caller %d, budget %d", nodes[filler], nodes[1-filler], budget)
		if warm.Cache != CacheRenamed {
			t.Fatalf("%s: cache outcome %q, want %q", what, warm.Cache, CacheRenamed)
		}
		if (coldErr == nil) != (nodes[1-filler] <= budget) || (coldErr != nil && !errors.Is(coldErr, dnnf.ErrNodeBudget)) {
			t.Fatalf("%s: cold err = %v", what, coldErr)
		}
		switch {
		case !errors.Is(warmErr, coldErr):
			t.Errorf("%s: warm err = %v, cold err = %v", what, warmErr, coldErr)
		case coldErr == nil:
			valuesIdentical(t, warm.Values, cold.Values, what)
		}
	}
}
