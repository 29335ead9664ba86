package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// pathLineage returns the lineage of k two-fact derivations chained on the
// facts first..first+k, (f₀∧f₁) ∨ (f₁∧f₂) ∨ …, with its facts. Lineages of
// different k are not isomorphic; equal k at different first are renamed
// copies of each other.
func pathLineage(first, k int) (*circuit.Node, []db.FactID) {
	b := circuit.NewBuilder()
	endo := []db.FactID{db.FactID(first)}
	ds := make([]*circuit.Node, k)
	for i := range ds {
		ds[i] = b.And(b.Variable(circuit.Var(first+i)), b.Variable(circuit.Var(first+i+1)))
		endo = append(endo, db.FactID(first+i+1))
	}
	return b.Or(ds...), endo
}

// explainWith runs the exact pipeline on a path lineage and fails the test
// on error.
func explainWith(t *testing.T, first, k int, opts PipelineOptions) *PipelineResult {
	t.Helper()
	elin, endo := pathLineage(first, k)
	res, err := ExplainCircuit(context.Background(), elin, endo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValueCacheStatsAndInvalidate(t *testing.T) {
	cache := NewValueCache(8)
	// Two lineages over disjoint facts, of shapes canonical keying cannot
	// merge: facts 1..3 and facts 10..11.
	explainWith(t, 1, 2, PipelineOptions{Cache: cache})
	explainWith(t, 10, 1, PipelineOptions{Cache: cache})
	if st := cache.Stats(); st.Len != 2 || st.Misses != 2 || st.Capacity != 8 {
		t.Fatalf("Stats = %+v, want Len=2 Misses=2 Capacity=8", st)
	}

	// Invalidating a fact outside every entry drops nothing.
	if n := cache.Invalidate(0, 99); n != 0 {
		t.Errorf("Invalidate(99) dropped %d entries, want 0", n)
	}
	// A mismatched owner tag protects entries even when the fact matches:
	// fact IDs collide across databases, so another database's updates must
	// never evict this one's values.
	if n := cache.Invalidate(42, 2); n != 0 {
		t.Errorf("Invalidate with foreign owner dropped %d entries, want 0", n)
	}
	// Invalidating a fact of the first lineage only, under the owner tag the
	// entries were filled with, evicts exactly its entry.
	if n := cache.Invalidate(0, 2); n != 1 {
		t.Errorf("Invalidate(2) dropped %d entries, want 1", n)
	}
	st := cache.Stats()
	if st.Len != 1 || st.Invalidations != 1 {
		t.Fatalf("after Invalidate: %+v, want Len=1 Invalidations=1", st)
	}
	// The second lineage must still be served warm; the first recomputes.
	if res := explainWith(t, 10, 1, PipelineOptions{Cache: cache}); res.Cache != CacheIdentical {
		t.Errorf("entry with untouched facts: cache %q, want %q", res.Cache, CacheIdentical)
	}
	if res := explainWith(t, 1, 2, PipelineOptions{Cache: cache}); res.Cache != CacheMiss {
		t.Errorf("invalidated entry: cache %q, want %q", res.Cache, CacheMiss)
	}
}

func TestValueCacheEvictionCounter(t *testing.T) {
	cache := NewValueCache(2)
	for k := 1; k <= 4; k++ {
		explainWith(t, 1, k, PipelineOptions{Cache: cache})
	}
	if st := cache.Stats(); st.Evictions != 2 || st.Len != 2 {
		t.Errorf("Stats = %+v, want Evictions=2 Len=2", st)
	}
}

func TestValueCacheLRUEviction(t *testing.T) {
	cache := NewValueCache(2)
	for k := 1; k <= 3; k++ { // k = 3 evicts k = 1
		explainWith(t, 1, k, PipelineOptions{Cache: cache})
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	if res := explainWith(t, 1, 1, PipelineOptions{Cache: cache}); res.Cache != CacheMiss {
		t.Error("evicted entry still served")
	}
	if res := explainWith(t, 1, 3, PipelineOptions{Cache: cache}); res.Cache != CacheIdentical {
		t.Error("recent entry was evicted")
	}
}

// TestValueCacheHitRespectsNodeBudget: a hit fails a node budget exactly
// where a cold compile under the same budget fails, renamed or not.
func TestValueCacheHitRespectsNodeBudget(t *testing.T) {
	cache := NewValueCache(4)
	explainWith(t, 1, 3, PipelineOptions{Cache: cache})
	for _, first := range []int{1, 20} {
		elin, endo := pathLineage(first, 3)
		_, coldErr := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{CompileMaxNodes: 1})
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache, CompileMaxNodes: 1})
		if err != dnnf.ErrNodeBudget || coldErr != dnnf.ErrNodeBudget {
			t.Fatalf("first=%d: warm err = %v, cold err = %v, want ErrNodeBudget for both", first, err, coldErr)
		}
		if res.Cache == CacheMiss {
			t.Errorf("first=%d: the budget failure did not come from a hit", first)
		}
	}
}

func TestValueCacheConcurrentUse(t *testing.T) {
	cache := NewValueCache(8)
	cold := make(map[int]Values)
	for k := 1; k <= 12; k++ {
		cold[k] = explainWith(t, 1, k, PipelineOptions{}).Values
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := 1 + (g+i)%12 // overlap across goroutines
				elin, endo := pathLineage(1, k)
				res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache})
				if err != nil {
					t.Error(err)
					return
				}
				for f, want := range cold[k] {
					if res.Values[f].Cmp(want) != 0 {
						t.Errorf("k=%d fact %d: %v, want %v", k, f, res.Values[f], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Len() > 8 {
		t.Errorf("cache grew past capacity: %d", cache.Len())
	}
}

func TestValueCacheGrow(t *testing.T) {
	cache := NewValueCache(1)
	cache.Grow(3)
	for k := 1; k <= 3; k++ {
		explainWith(t, 1, k, PipelineOptions{Cache: cache})
	}
	if cache.Len() != 3 {
		t.Errorf("grown cache holds %d entries, want 3", cache.Len())
	}
	cache.Grow(2) // never shrinks
	if cache.Len() != 3 {
		t.Errorf("Grow shrank the cache to %d", cache.Len())
	}
}

// TestValueCacheMatchesCold: identical and renamed hits return the cold
// run's values, DNNFSize and NumClauses, with no circuit, and give an exact
// 0 to a fact of endo that the lineage does not mention.
func TestValueCacheMatchesCold(t *testing.T) {
	cache := NewValueCache(4)
	ctx := context.Background()
	for k := 1; k <= 4; k++ {
		explainWith(t, 1, k, PipelineOptions{Cache: cache})
		for _, first := range []int{1, 30} {
			elin, endo := pathLineage(first, k)
			endo = append(endo, 99)
			cold, err := ExplainCircuit(ctx, elin, endo, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := ExplainCircuit(ctx, elin, endo, PipelineOptions{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]string{1: CacheIdentical, 30: CacheRenamed}[first]
			if warm.Cache != want {
				t.Errorf("k=%d first=%d: cache %q, want %q", k, first, warm.Cache, want)
			}
			valuesIdentical(t, warm.Values, cold.Values, "warm vs cold")
			if warm.Values[99] == nil || warm.Values[99].Sign() != 0 {
				t.Errorf("k=%d first=%d: fact absent from the lineage got %v, want 0", k, first, warm.Values[99])
			}
			if warm.DNNFSize != cold.DNNFSize || warm.NumClauses != cold.NumClauses || warm.DNNF != nil {
				t.Errorf("k=%d first=%d: hit reports size %d, clauses %d, circuit %v; cold %d, %d",
					k, first, warm.DNNFSize, warm.NumClauses, warm.DNNF != nil, cold.DNNFSize, cold.NumClauses)
			}
		}
	}
}

// TestValueCacheCopiesValues: the cache shares no *big.Rat with any caller,
// so a caller that writes to its values changes neither the entry nor
// another caller's result.
func TestValueCacheCopiesValues(t *testing.T) {
	cache := NewValueCache(4)
	cold := explainWith(t, 1, 2, PipelineOptions{}).Values
	filled := explainWith(t, 1, 2, PipelineOptions{Cache: cache}).Values
	hit := explainWith(t, 1, 2, PipelineOptions{Cache: cache}).Values
	for f := range filled {
		if filled[f] == hit[f] {
			t.Fatalf("fact %d: the filling run and the hit share one *big.Rat", f)
		}
		filled[f].SetInt64(7)
		hit[f].SetInt64(9)
	}
	valuesIdentical(t, explainWith(t, 1, 2, PipelineOptions{Cache: cache}).Values, cold, "hit after callers wrote to their values")
}

// TestValueCacheFailedComputeNotCached: a failed compile and a failed
// Algorithm 1 store nothing, and a later run with a workable budget fills
// the entry.
func TestValueCacheFailedComputeNotCached(t *testing.T) {
	cache := NewValueCache(4)
	elin, endo := pathLineage(1, 2)
	if _, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache, CompileMaxNodes: 1}); err != dnnf.ErrNodeBudget {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if _, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache, ShapleyTimeout: time.Nanosecond}); err != ErrShapleyTimeout {
		t.Fatalf("err = %v, want ErrShapleyTimeout", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("failed runs stored %d entries", n)
	}
	if res := explainWith(t, 1, 2, PipelineOptions{Cache: cache}); res.Cache != CacheMiss || len(res.Values) != 3 {
		t.Fatalf("retry: cache %q, %d values; want a miss with 3 values", res.Cache, len(res.Values))
	}
	if res := explainWith(t, 1, 2, PipelineOptions{Cache: cache}); res.Cache != CacheIdentical {
		t.Errorf("after a successful retry: cache %q, want %q", res.Cache, CacheIdentical)
	}
}

// TestValueCacheSingleFlight floods one lineage from many goroutines and
// checks that only one of them computed the values (the rest report hits),
// so concurrent duplicates pay for one compile and one Algorithm 1.
func TestValueCacheSingleFlight(t *testing.T) {
	cache := NewValueCache(4)
	const goroutines = 16
	var wg sync.WaitGroup
	var cold atomic.Int32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			elin, endo := pathLineage(1, 3)
			res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{Cache: cache})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Cache == CacheMiss {
				cold.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := cold.Load(); n != 1 {
		t.Errorf("%d goroutines computed cold, want exactly 1", n)
	}
}
