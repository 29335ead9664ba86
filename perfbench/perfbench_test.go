package main

import (
	"context"
	"testing"
	"time"
)

// TestLibraryCountsRepeat makes two short traced runs of explain-exact and
// explain-degraded on one seed and asserts that their work counts are
// identical. On another seed, explain-exact must stay fully exact and
// explain-degraded must degrade the same tuples as on the first.
func TestLibraryCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the library workloads")
	}
	run := func(workload string, seed int64, trace bool) *outcome {
		t.Helper()
		cfg := config{workload: workload, seed: seed, window: 300 * time.Millisecond, trace: trace, setups: 1}
		out, err := runLibrary(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s seed %d: %v", workload, seed, err)
		}
		if out.failed != 0 || len(out.problems) != 0 {
			t.Fatalf("%s seed %d: %d of %d operations failed; problems: %v", workload, seed, out.failed, out.attempted, out.problems)
		}
		return out
	}
	counts := []string{"engine.answers", "cnf.clauses", "dnnf.nodes", "dnnf.decisions", "dnnf.budget_trips", "sampling.permutations"}
	mixes := make(map[string]float64)
	for _, w := range []string{"explain-exact", "explain-degraded"} {
		a, b := run(w, 1, true), run(w, 1, true)
		for _, name := range counts {
			if a.metrics[name] != b.metrics[name] {
				t.Errorf("%s: %s = %v, then %v", w, name, a.metrics[name], b.metrics[name])
			}
		}
		mixes[w] = a.metrics["exact_ratio"]
	}
	if r := mixes["explain-exact"]; r != 1 {
		t.Errorf("explain-exact seed 1: exact_ratio = %v, want 1", r)
	}
	if r := run("explain-exact", 2, false).metrics["exact_ratio"]; r != 1 {
		t.Errorf("explain-exact seed 2: exact_ratio = %v, want 1", r)
	}
	for i := 0; i < 2; i++ {
		if r := run("explain-degraded", 2, false).metrics["exact_ratio"]; r != mixes["explain-degraded"] {
			t.Errorf("explain-degraded seed 2: exact_ratio = %v, want %v as on seed 1", r, mixes["explain-degraded"])
		}
	}
}

// TestAttributeSplitsOverlap checks that overlapping layer calls share the
// wall time instead of counting it twice, and that the shares plus other add
// up to the wall time.
func TestAttributeSplitsOverlap(t *testing.T) {
	ms := time.Millisecond
	tr := &opTrace{wall: 10 * ms, spans: []span{
		{"a", 0, 4 * ms},
		{"b", 2 * ms, 6 * ms},
		{"c", 6 * ms, 6 * ms},
	}}
	shares, other := tr.attribute()
	want := map[string]float64{"a": 3, "b": 3}
	for layer, v := range want {
		if shares[layer] != v {
			t.Errorf("%s = %v ms, want %v", layer, shares[layer], v)
		}
	}
	if shares["c"] != 0 || other != 4 {
		t.Errorf("c = %v ms, other = %v ms; want 0 and 4", shares["c"], other)
	}
}
