package trace

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestDisabledNoop(t *testing.T) {
	ctx := context.Background()
	if ObserverOf(ctx) != nil {
		t.Fatal("background context should carry no observer")
	}
	cctx, sp := Start(ctx, "stage")
	if sp != nil {
		t.Fatal("Start without a root must return a nil span")
	}
	if cctx != ctx {
		t.Fatal("Start without a root must return the context unchanged")
	}
	// Every method must be nil-safe.
	sp.Set("k", 1)
	sp.End()
	if sp.Duration() != 0 {
		t.Fatal("nil span duration must be zero")
	}
	if sp.Snapshot() != nil {
		t.Fatal("nil span snapshot must be nil")
	}
}

func TestSpanTree(t *testing.T) {
	var mu sync.Mutex
	observed := map[string]int{}
	ctx, root := NewRoot(context.Background(), "req", func(stage string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s", stage)
		}
		mu.Lock()
		observed[stage]++
		mu.Unlock()
	})
	actx, a := Start(ctx, "a")
	if ObserverOf(actx) == nil {
		t.Fatal("a child span must carry its root's observer")
	}
	a.Set("clauses", 42)
	a.Set("cache", "miss")
	a.Set("cache", "renamed") // last write wins
	_, a1 := Start(actx, "a1")
	a1.End()
	a.End()
	a.End() // second End is a no-op

	_, b := Start(ctx, "b")
	b.End()
	root.End()

	snap := root.Snapshot()
	if snap.Name != "req" || len(snap.Children) != 2 {
		t.Fatalf("unexpected root snapshot: %+v", snap)
	}
	an := snap.Find("a")
	if an == nil || len(an.Children) != 1 || an.Children[0].Name != "a1" {
		t.Fatalf("unexpected subtree for a: %+v", an)
	}
	if v, ok := an.Attr("cache"); !ok || v != "renamed" {
		t.Fatalf("attr override failed: %v %v", v, ok)
	}
	if v, ok := an.Attr("clauses"); !ok || v != 42 {
		t.Fatalf("clauses attr: %v %v", v, ok)
	}
	if snap.Find("missing") != nil {
		t.Fatal("Find of absent name must be nil")
	}

	// Children durations nest within the parent.
	if an.DurationMs > snap.DurationMs+0.5 {
		t.Fatalf("child longer than root: %v > %v", an.DurationMs, snap.DurationMs)
	}
	if an.Children[0].StartMs < an.StartMs-0.5 {
		t.Fatalf("grandchild starts before child: %+v", an)
	}

	for _, stage := range []string{"req", "a", "a1", "b"} {
		if observed[stage] != 1 {
			t.Fatalf("observer saw %q %d times", stage, observed[stage])
		}
	}

	// The snapshot must be JSON-encodable.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}

	names := []string{}
	snap.Walk(func(n *SpanNode) { names = append(names, n.Name) })
	if len(names) != 4 || names[0] != "req" {
		t.Fatalf("walk order: %v", names)
	}
}

func TestConcurrentChildren(t *testing.T) {
	ctx, root := NewRoot(context.Background(), "req", nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, sp := Start(ctx, "tuple")
			sp.Set("i", 1)
			_, inner := Start(cctx, "compile")
			inner.End()
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != 32 {
		t.Fatalf("expected 32 children, got %d", len(snap.Children))
	}
	for _, c := range snap.Children {
		if len(c.Children) != 1 || c.Children[0].Name != "compile" {
			t.Fatalf("bad child: %+v", c)
		}
	}
}

func TestLiveSnapshot(t *testing.T) {
	_, root := NewRoot(context.Background(), "req", nil)
	time.Sleep(time.Millisecond)
	snap := root.Snapshot()
	if snap.DurationMs <= 0 {
		t.Fatalf("live snapshot should report elapsed time, got %v", snap.DurationMs)
	}
	if root.Duration() <= 0 {
		t.Fatal("live Duration should report elapsed time")
	}
}

// BenchmarkStartDisabled measures the per-stage cost of instrumentation
// when no collector is installed: one context value lookup plus nil-safe
// method calls. This is the overhead every pipeline stage pays on the
// explain hot path when tracing is off — a few nanoseconds against
// stage times measured in microseconds to seconds, i.e. well under the
// 2% budget (see also BenchmarkSessionExplainTrace* at the repo root).
func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.Set("k", i)
		sp.End()
	}
}

func BenchmarkStartEnabled(b *testing.B) {
	ctx, root := NewRoot(context.Background(), "req", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.Set("k", i)
		sp.End()
	}
	root.End()
}
