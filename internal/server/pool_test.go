package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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
			if _, err := p.Explain(ctx, flightsKey(), repro.ExplainBudget{}); err != nil {
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
		if _, err := p.Explain(ctx, k, repro.ExplainBudget{}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Opens != 3 || st.Evictions != 1 || st.Sessions != 2 {
		t.Fatalf("after 3 keys at capacity 2: %+v, want 3 opens, 1 eviction, 2 sessions", st)
	}
	// keys[0] was evicted (LRU); explaining it again reopens.
	if _, err := p.Explain(ctx, keys[0], repro.ExplainBudget{}); err != nil {
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
			_, err := p.Explain(ctx, bad, repro.ExplainBudget{})
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
	if _, err := p.Explain(ctx, flightsKey(), repro.ExplainBudget{}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolUpdateCoalescing drives the batcher deterministically: with an
// application marked in flight, concurrent update requests pile into
// pending; draining applies all of them in ONE Session.Apply and reports
// the coalesced batch size to every request.
func TestPoolUpdateCoalescing(t *testing.T) {
	p, d := newTestPool(t, 2)
	ctx := context.Background()
	key := flightsKey()

	// Materialize the entry and pretend a leader is mid-application.
	e, err := p.acquire(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	e.bmu.Lock()
	e.applying = true
	e.bmu.Unlock()

	const n = 3
	usa := []string{"JFK", "EWR", "BOS"}
	results := make(chan struct {
		facts   []*repro.Fact
		batched int
		err     error
	}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			facts, batched, err := p.Update(context.Background(), key, []repro.Mutation{
				repro.InsertOp("Flights", true, repro.String(usa[i]), repro.String("ORY")),
			})
			results <- struct {
				facts   []*repro.Fact
				batched int
				err     error
			}{facts, batched, err}
		}(i)
	}

	// Wait for all three requests to enqueue behind the fake leader.
	waitFor(t, func() bool {
		e.bmu.Lock()
		defer e.bmu.Unlock()
		return len(e.pending) == n
	})

	// Drain exactly as the leader loop does.
	e.bmu.Lock()
	batch := e.pending
	e.pending = nil
	e.bmu.Unlock()
	p.applyBatch(context.Background(), e, batch)
	e.bmu.Lock()
	e.applying = false
	e.bmu.Unlock()

	wg.Wait()
	close(results)
	inserted := 0
	for res := range results {
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.batched != n {
			t.Errorf("batched = %d, want %d", res.batched, n)
		}
		if len(res.facts) != 1 || res.facts[0] == nil {
			t.Fatalf("facts = %v, want the one inserted fact", res.facts)
		}
		inserted++
	}
	if inserted != n {
		t.Fatalf("%d results, want %d", inserted, n)
	}
	p.release(e)

	st := p.Stats()
	if st.UpdateRequests != n || st.UpdateBatches != 1 || st.CoalescedBatches != 1 {
		t.Errorf("batcher counters: %+v, want %d requests in 1 coalesced batch", st, n)
	}

	// The session absorbed all three inserts: the explanation matches a
	// cold Explain on the mutated database.
	es, err := p.Explain(ctx, key, repro.ExplainBudget{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := repro.Explain(ctx, d, flights.Query(), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(cold) {
		t.Fatalf("%d tuples, want %d", len(es), len(cold))
	}
	for i := range cold {
		for f, v := range cold[i].Values {
			if got := es[i].Values[f]; got == nil || got.Cmp(v) != 0 {
				t.Fatalf("tuple %d fact %d: %v, want %v", i, f, got, v)
			}
		}
	}
}

// TestPoolUpdateSequential: uncontended updates apply one batch per request
// (no artificial batching delay) and count no coalescing.
func TestPoolUpdateSequential(t *testing.T) {
	p, _ := newTestPool(t, 2)
	key := flightsKey()
	facts, batched, err := p.Update(context.Background(), key, []repro.Mutation{
		repro.InsertOp("Flights", true, repro.String("JFK"), repro.String("ORY")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if batched != 1 {
		t.Errorf("batched = %d, want 1", batched)
	}
	if _, _, err := p.Update(context.Background(), key, []repro.Mutation{repro.DeleteOp(facts[0].ID)}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.UpdateRequests != 2 || st.UpdateBatches != 2 || st.CoalescedBatches != 0 {
		t.Errorf("counters: %+v, want 2 requests, 2 batches, 0 coalesced", st)
	}
}

// TestPoolBatchErrorAttribution pins the coalesced-failure semantics: in a
// batch [good, bad, good], the first request succeeds (its mutations were
// applied), the request owning the failing mutation gets the error, and the
// unreached request is requeued and applied in the next batch — one
// client's bad mutation never fails its neighbors.
func TestPoolBatchErrorAttribution(t *testing.T) {
	p, _ := newTestPool(t, 2)
	key := flightsKey()
	e, err := p.acquire(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release(e)

	mk := func(muts ...repro.Mutation) *updateCall {
		return &updateCall{muts: muts, done: make(chan struct{})}
	}
	good1 := mk(repro.InsertOp("Flights", true, repro.String("JFK"), repro.String("ORY")))
	bad := mk(repro.DeleteOp(repro.FactID(9999)))
	good2 := mk(repro.InsertOp("Flights", true, repro.String("BOS"), repro.String("ORY")))

	requeue := p.applyBatch(context.Background(), e, []*updateCall{good1, bad, good2})
	<-good1.done
	<-bad.done
	if good1.err != nil || good1.facts[0] == nil {
		t.Errorf("fully applied neighbor failed: err=%v facts=%v", good1.err, good1.facts)
	}
	if bad.err == nil || !errors.Is(bad.err, repro.ErrNoFact) {
		t.Errorf("failing call's error = %v, want ErrNoFact", bad.err)
	}
	if len(requeue) != 1 || requeue[0] != good2 {
		t.Fatalf("requeue = %v, want the unreached call", requeue)
	}
	select {
	case <-good2.done:
		t.Fatal("unreached call resolved before its requeue ran")
	default:
	}
	if rq := p.applyBatch(context.Background(), e, requeue); len(rq) != 0 {
		t.Fatalf("requeued batch requeued again: %v", rq)
	}
	<-good2.done
	if good2.err != nil || good2.facts[0] == nil {
		t.Errorf("requeued call failed: err=%v facts=%v", good2.err, good2.facts)
	}
	if st := p.Stats(); st.UpdateBatches != 2 {
		t.Errorf("update batches = %d, want 2 (original + requeue)", st.UpdateBatches)
	}
}

// TestPoolUpdateOnClosedSession: a batch-wide Apply failure (nil results)
// must error every call instead of panicking the leader and wedging the
// key's update path.
func TestPoolUpdateOnClosedSession(t *testing.T) {
	p, _ := newTestPool(t, 2)
	key := flightsKey()
	e, err := p.acquire(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	e.sess.Close()
	p.release(e)

	done := make(chan error, 1)
	go func() {
		_, _, err := p.Update(context.Background(), key, []repro.Mutation{
			repro.InsertOp("Flights", true, repro.String("JFK"), repro.String("ORY")),
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "session is closed") {
			t.Fatalf("Update on closed session: %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Update wedged on a closed session")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		// Cede the scheduler; 2000 * 1ms bounds the wait at 2s.
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
