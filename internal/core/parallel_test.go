package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/dnnf"
)

// valuesIdentical asserts two Values maps carry the same facts with
// big.Rat-identical entries.
func valuesIdentical(t *testing.T, got, want Values, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d facts, want %d", what, len(got), len(want))
	}
	for f, w := range want {
		g, ok := got[f]
		if !ok {
			t.Fatalf("%s: fact %d missing", what, f)
		}
		if g.Cmp(w) != 0 {
			t.Fatalf("%s: fact %d = %v, want %v", what, f, g, w)
		}
	}
}

// TestExplainCircuitParallelMatchesSerial is the concurrency acceptance
// test: under the race detector it exercises the worker fan-out of
// Algorithm 1 on the flights fixture and asserts the parallel Values are
// big.Rat-identical to the serial ones.
func TestExplainCircuitParallelMatchesSerial(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	serial, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 3 * runtime.GOMAXPROCS(0)} {
		par, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		valuesIdentical(t, par.Values, serial.Values, "parallel vs serial")
		ratEq(t, par.Values[fs.A[1].ID], 43, 105, "parallel Shapley(a1)")
	}
}

func TestShapleyAllParallelMatchesSerial(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ShapleyAll(context.Background(), res.DNNF, endo, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ShapleyAll(context.Background(), res.DNNF, endo, 8)
	if err != nil {
		t.Fatal(err)
	}
	valuesIdentical(t, parallel, serial, "ShapleyAll workers=8 vs 1")
	// Rankings derived from identical values must be identical too.
	sr, pr := serial.Ranking(), parallel.Ranking()
	for i := range sr {
		if sr[i] != pr[i] {
			t.Fatalf("ranking diverges at %d: %v vs %v", i, sr, pr)
		}
	}
}

func TestExplainCircuitCancelledContext(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExplainCircuit(ctx, elin, endo, PipelineOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestHybridPropagatesCancellation(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Hybrid(ctx, elin, endo, PipelineOptions{CompileTimeout: time.Second, ShapleyTimeout: time.Second}, ExplainBudget{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled Hybrid returned a result — cancellation must not fall back to proxy")
	}
}

func TestShapleyAllCancelledReturnsContextError(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ShapleyAll(ctx, res.DNNF, endo, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPipelineWithSharedCacheMatchesCold verifies end-to-end that the
// cross-call compilation cache changes only the cost, never the values.
func TestPipelineWithSharedCacheMatchesCold(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	cold, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cache := dnnf.NewCompileCache(8)
	var warm *PipelineResult
	for i := 0; i < 3; i++ { // first call fills, later calls hit
		warm, err = ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !warm.CompileStats.CrossCallHit {
		t.Error("third compilation of identical lineage missed the cross-call cache")
	}
	valuesIdentical(t, warm.Values, cold.Values, "cached vs cold pipeline")
}

// TestRankingDeterministic guards the satellite fix: ranking ties (and the
// efficiency sum) must not depend on Go's randomized map iteration order.
func TestRankingDeterministic(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Values.Ranking()
	firstSum := res.Values.Sum()
	for i := 0; i < 20; i++ {
		r := res.Values.Ranking()
		for j := range first {
			if r[j] != first[j] {
				t.Fatalf("run %d: ranking %v differs from %v", i, r, first)
			}
		}
		if s := res.Values.Sum(); s.Cmp(firstSum) != 0 {
			t.Fatalf("run %d: sum %v differs from %v", i, s, firstSum)
		}
	}
	// Ties break by ascending fact ID: facts a2..a5 share 23/210, a6 and a7
	// share 8/105, so within each tied group IDs must ascend.
	v := res.Values
	r := v.Ranking()
	for i := 1; i < len(r); i++ {
		if v[r[i-1]].Cmp(v[r[i]]) == 0 && r[i-1] >= r[i] {
			t.Fatalf("tie between facts %d and %d not broken by ascending ID", r[i-1], r[i])
		}
	}
}
