package repro

// Tracing-overhead benchmarks: the internal/trace spans are compiled into
// the pipeline permanently, so the disabled path (no collector installed
// on the context) must be close to free. BenchmarkSessionExplainTraceOff
// vs BenchmarkSessionExplainTraceOn measure a warm flights session explain
// with and without a collecting root. The bar for the instrumentation is
// TraceOff within 2% of the pre-instrumentation baseline — on the warm
// path the two differ by a handful of ctx.Value lookups returning nil
// spans whose methods are no-ops (~tens of ns against a ~hundreds-of-µs
// explain). Collection itself (TraceOn) is allowed to cost more; it only
// runs when a request opts in.
//
//	go test -bench 'SessionExplainTrace' -benchtime=1000x .

import (
	"context"
	"testing"

	"repro/internal/flights"
	"repro/internal/trace"
)

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
// about: roughly a dozen no-op trace.Start calls against hundreds of
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
