package repro

// Tracing-overhead benchmarks and the warm-explain allocation gate. Spans
// are opened only for work: a warm explain serves every tuple from the
// session's cache and opens no span for it, so with or without a
// collecting root it costs the same few allocations whatever the number of
// answers (TestWarmExplainAllocations). The internal/trace spans are
// compiled into the pipeline permanently, so the disabled path (no
// collector installed on the context) must be close to free.
// BenchmarkSessionExplainTraceOff vs BenchmarkSessionExplainTraceOn
// measure a warm flights session explain with and without a collecting
// root; the Dirty pair measures an explain that recomputes its tuple, which
// opens the delta, tuple, tseytin, compile and shapley spans. Collection
// itself is allowed to cost more than the disabled path; it only runs when
// a request opts in.
//
//	go test -bench 'SessionExplainTrace' -benchtime=1000x .
//	go test -run WarmExplainAllocations -v .

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/flights"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// TestWarmExplainAllocations: a warm explain allocates the same for TPC-H
// q3 (5 answers) and q10 (8 answers) at scale 1, untraced and under a
// collecting root, because a tuple served from the session's cache opens
// no span and formats nothing. It also allocates the same at Workers 1 and
// 2, because cached tuples are served on the calling goroutine and only
// tuples that need computing fan out. -v logs the counts.
func TestWarmExplainAllocations(t *testing.T) {
	ctx := context.Background()
	d := tpch.Generate(tpch.DefaultConfig())
	type counts struct {
		name                      string
		answers, untraced, traced float64
	}
	var got []counts
	for _, workers := range []int{2, 1} {
		for _, bq := range tpch.Queries() {
			if bq.Name != "q3" && bq.Name != "q10" {
				continue
			}
			s, err := Open(d, bq.Q, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			es, err := s.Explain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			explain := func(ctx context.Context) {
				if _, err := s.Explain(ctx); err != nil {
					t.Fatal(err)
				}
			}
			c := counts{name: fmt.Sprintf("%s at Workers %d", bq.Name, workers), answers: float64(len(es))}
			c.untraced = testing.AllocsPerRun(50, func() { explain(ctx) })
			c.traced = testing.AllocsPerRun(50, func() {
				tctx, root := trace.NewRoot(ctx, "explain", nil)
				explain(tctx)
				root.End()
			})
			t.Logf("%s: %v answers, %v allocs untraced, %v traced", c.name, c.answers, c.untraced, c.traced)
			got = append(got, c)
		}
	}
	if got[0].answers == got[1].answers {
		t.Fatalf("q3 and q10 both have %v answers; the gate needs different counts", got[0].answers)
	}
	for _, c := range got[1:] {
		if c.untraced != got[0].untraced || c.traced != got[0].traced {
			t.Errorf("warm explain allocations vary with the answers or workers: %s %v untraced / %v traced, %s %v / %v",
				got[0].name, got[0].untraced, got[0].traced, c.name, c.untraced, c.traced)
		}
	}
}

// warmSession opens a flights session and runs one explain so the
// grounding and the epoch-keyed explanation are hot; the measured loop then
// isolates the per-request bookkeeping — exactly where the tracing
// instrumentation sits.
func warmSession(b *testing.B) *Session {
	b.Helper()
	d, _ := flights.Build()
	s, err := Open(d, flights.Query(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if _, err := s.Explain(context.Background()); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkSessionExplainTraceOff(b *testing.B) {
	s := warmSession(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Explain(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionExplainTraceOn(b *testing.B) {
	s := warmSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, root := trace.NewRoot(context.Background(), "explain", nil)
		if _, err := s.Explain(ctx); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

// The Dirty pair applies an insert+delete round (outside the timer) before
// each explain, so every iteration runs the full incremental pipeline —
// delta grounding, Tseytin, compile, Shapley — rather than returning the
// cached artifact. This is the hot path the <2% disabled-overhead bar is
// about: a handful of no-op trace.Start calls against hundreds of
// microseconds of real work.
func benchDirtyExplain(b *testing.B, traced bool) {
	s := warmSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		facts, err := s.Apply([]Mutation{InsertOp("Flights", true, String("JFK"), String("ORY"))})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Apply([]Mutation{DeleteOp(facts[0].ID)}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ctx := context.Background()
		var root *trace.Span
		if traced {
			ctx, root = trace.NewRoot(ctx, "explain", nil)
		}
		if _, err := s.Explain(ctx); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

func BenchmarkSessionExplainDirtyTraceOff(b *testing.B) { benchDirtyExplain(b, false) }
func BenchmarkSessionExplainDirtyTraceOn(b *testing.B)  { benchDirtyExplain(b, true) }
