package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/trace"
)

func TestHybridExactPath(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := Hybrid(context.Background(), elin, endo, PipelineOptions{CompileTimeout: 10 * time.Second, ShapleyTimeout: 10 * time.Second}, ExplainBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodExact {
		t.Fatalf("method = %v, want exact", res.Method)
	}
	ratEq(t, res.Values[fs.A[1].ID], 43, 105, "hybrid exact Shapley(a1)")
	if len(res.Ranking) != len(endo) {
		t.Fatalf("ranking has %d facts, want %d", len(res.Ranking), len(endo))
	}
	if res.Ranking[0] != fs.A[1].ID {
		t.Errorf("top-ranked fact = %d, want a1 (%d)", res.Ranking[0], fs.A[1].ID)
	}
	if res.Exact == nil || res.Exact.Values == nil {
		t.Error("exact pipeline result missing")
	}
}

func TestHybridFallsBackToProxy(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	// A node budget of 1 forces the compiler to fail immediately,
	// exercising the out-of-memory fallback path.
	res, err := Hybrid(context.Background(), elin, endo, PipelineOptions{CompileTimeout: 10 * time.Second, CompileMaxNodes: 1}, ExplainBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodProxy {
		t.Fatalf("method = %v, want proxy", res.Method)
	}
	if res.Values != nil {
		t.Error("proxy fallback should not carry exact values")
	}
	if res.Proxy == nil || len(res.Ranking) == 0 {
		t.Fatal("proxy fallback missing scores or ranking")
	}
	// The proxy ranking must still place the a2..a5 group above a6, a7
	// (Example 5.3's qualitative property).
	pos := make(map[db.FactID]int)
	for i, id := range res.Ranking {
		pos[id] = i
	}
	for i := 2; i <= 5; i++ {
		for j := 6; j <= 7; j++ {
			if pos[fs.A[i].ID] > pos[fs.A[j].ID] {
				t.Errorf("proxy ranking places a%d below a%d", i, j)
			}
		}
	}
}

// TestHybridFallbacks pins the one fallback switch after the exact attempt:
// CNF Proxy unless the budget is enabled, sampling when it is. The proxy
// keeps the partial exact result and sets no degradation cause; sampling
// sets the cause and carries no exact result. Each fallback's span keeps its
// name and cause attribute.
func TestHybridFallbacks(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	for _, tc := range []struct {
		name   string
		opts   PipelineOptions
		budget ExplainBudget
		method Method
		cause  string
	}{
		{"node cap", PipelineOptions{CompileMaxNodes: 1}, ExplainBudget{},
			MethodProxy, CauseNodeBudget},
		{"mode exact keeps the proxy", PipelineOptions{CompileMaxNodes: 1}, ExplainBudget{Mode: ModeExact, MaxNodes: 1},
			MethodProxy, CauseNodeBudget},
		{"budget node cap", PipelineOptions{}, ExplainBudget{MaxNodes: 1, MinSamples: 64},
			MethodApprox, CauseNodeBudget},
		{"mode approximate", PipelineOptions{CompileMaxNodes: 1}, ExplainBudget{Mode: ModeApproximate, MinSamples: 64},
			MethodApprox, CauseMode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, root := trace.NewRoot(context.Background(), "explain", nil)
			res, err := Hybrid(ctx, elin, endo, tc.opts, tc.budget)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			if res.Method != tc.method {
				t.Fatalf("method = %v, want %v", res.Method, tc.method)
			}
			span := "proxy"
			if tc.method == MethodProxy {
				if res.Exact == nil || res.Exact.CNF == nil {
					t.Error("proxy fallback dropped the partial exact result")
				}
				if res.DegradedCause != "" {
					t.Errorf("proxy fallback set DegradedCause %q", res.DegradedCause)
				}
			} else {
				span = string(StageApprox)
				if res.Exact != nil {
					t.Error("approximate fallback carries an exact result")
				}
				if res.DegradedCause != tc.cause {
					t.Errorf("DegradedCause = %q, want %q", res.DegradedCause, tc.cause)
				}
			}
			sp := root.Snapshot().Find(span)
			if sp == nil {
				t.Fatalf("trace has no %q span", span)
			}
			if cause, _ := sp.Attr("cause"); cause != tc.cause {
				t.Errorf("%s span cause = %v, want %q", span, cause, tc.cause)
			}
		})
	}
}

func TestHybridMethodString(t *testing.T) {
	if MethodExact.String() != "exact" || MethodProxy.String() != "cnf-proxy" {
		t.Errorf("method strings: %q, %q", MethodExact.String(), MethodProxy.String())
	}
}

func TestPipelineShapleyTimeout(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	// A zero compile budget with a negative-duration Shapley deadline: use
	// an absurdly small positive timeout instead to trigger the per-fact
	// deadline check deterministically.
	_, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{ShapleyTimeout: time.Nanosecond})
	if err != ErrShapleyTimeout {
		t.Fatalf("err = %v, want ErrShapleyTimeout", err)
	}
}
