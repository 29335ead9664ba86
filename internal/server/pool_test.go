package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/flights"
)

// newTestPool builds a pool over one flights database with a real session
// opener, returning the pool and the shared database.
func newTestPool(t *testing.T, capacity int) (*Pool, *repro.Database) {
	t.Helper()
	d, _ := flights.Build()
	locks := map[string]*sync.RWMutex{"flights": new(sync.RWMutex)}
	p := NewPool(capacity, func(ctx context.Context, k Key) (*repro.Session, error) {
		if k.Dataset != "flights" {
			return nil, fmt.Errorf("server: unknown dataset %q", k.Dataset)
		}
		q, err := repro.ParseQuery(k.Query)
		if err != nil {
			return nil, err
		}
		return repro.OpenContext(ctx, d, q, repro.Options{})
	}, func(ds string) *sync.RWMutex { return locks[ds] })
	t.Cleanup(p.Close)
	return p, d
}

// noRender is a render callback for pool tests that send no response.
func noRender([]repro.TupleExplanation) error { return nil }

func flightsKey() Key {
	return Key{Dataset: "flights", Query: flights.Query().String()}
}

// TestPoolSingleFlightAndReuse: concurrent first requests for one key open
// the session exactly once; every later request reuses it.
func TestPoolSingleFlightAndReuse(t *testing.T) {
	p, _ := newTestPool(t, 4)
	ctx := context.Background()
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Explain(ctx, flightsKey(), repro.ExplainBudget{}, noRender); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Opens != 1 {
		t.Errorf("opens = %d, want 1 (single-flight)", st.Opens)
	}
	if st.Reuses != n-1 {
		t.Errorf("reuses = %d, want %d", st.Reuses, n-1)
	}
	if st.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", st.Sessions)
	}
}

// TestPoolLRUEviction: a bounded pool closes the least recently used
// session when a new key exceeds capacity, and transparently reopens it on
// the next request.
func TestPoolLRUEviction(t *testing.T) {
	p, _ := newTestPool(t, 2)
	ctx := context.Background()
	keys := []Key{
		{Dataset: "flights", Query: flights.Query().String()},
		{Dataset: "flights", Query: flights.DirectQuery().String()},
		{Dataset: "flights", Query: flights.OneStopQuery().String()},
	}
	for _, k := range keys {
		if _, err := p.Explain(ctx, k, repro.ExplainBudget{}, noRender); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Opens != 3 || st.Evictions != 1 || st.Sessions != 2 {
		t.Fatalf("after 3 keys at capacity 2: %+v, want 3 opens, 1 eviction, 2 sessions", st)
	}
	// keys[0] was evicted (LRU); explaining it again reopens.
	if _, err := p.Explain(ctx, keys[0], repro.ExplainBudget{}, noRender); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.Opens != 4 || st.Evictions != 2 {
		t.Errorf("after revisiting the evicted key: %+v, want 4 opens, 2 evictions", st)
	}
}

// TestPoolOpenFailure: a failing open propagates to every single-flight
// waiter and leaves the pool clean for a later successful key.
func TestPoolOpenFailure(t *testing.T) {
	p, _ := newTestPool(t, 2)
	ctx := context.Background()
	bad := Key{Dataset: "nope", Query: flights.Query().String()}
	const n = 4
	var wg sync.WaitGroup
	errCount := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Explain(ctx, bad, repro.ExplainBudget{}, noRender)
			errCount <- err
		}()
	}
	wg.Wait()
	close(errCount)
	for err := range errCount {
		if err == nil || !strings.Contains(err.Error(), "unknown dataset") {
			t.Fatalf("want unknown-dataset error, got %v", err)
		}
	}
	if st := p.Stats(); st.Sessions != 0 || st.Opens != 0 {
		t.Errorf("failed opens left state: %+v", st)
	}
	if _, err := p.Explain(ctx, flightsKey(), repro.ExplainBudget{}, noRender); err != nil {
		t.Fatal(err)
	}
}

// TestPoolLookup: Lookup finds a pooled session from its normalized text,
// under its own dataset only, and not from another spelling of the query
// (which the handler parses) nor once the session is evicted.
func TestPoolLookup(t *testing.T) {
	p, _ := newTestPool(t, 1)
	ctx := context.Background()
	key := flightsKey()
	if _, ok := p.Lookup(key.Dataset, key.Query); ok {
		t.Fatal("an empty pool knows a query")
	}
	if _, err := p.Explain(ctx, key, repro.ExplainBudget{}, noRender); err != nil {
		t.Fatal(err)
	}
	if got, ok := p.Lookup(key.Dataset, key.Query); !ok || got != key {
		t.Errorf("normalized text finds %v, %v", got, ok)
	}
	if _, ok := p.Lookup(key.Dataset, " "+key.Query); ok {
		t.Error("another spelling is found without a parse")
	}
	if _, ok := p.Lookup("other", key.Query); ok {
		t.Error("the text is found under another dataset")
	}

	other := Key{Dataset: "flights", Query: flights.DirectQuery().String()}
	if _, err := p.Explain(ctx, other, repro.ExplainBudget{}, noRender); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lookup(key.Dataset, key.Query); ok {
		t.Error("an evicted session is still found")
	}
}
