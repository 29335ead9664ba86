package core

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/trace"
)

// Method identifies which algorithm produced a hybrid result.
type Method uint8

// Hybrid outcome methods.
const (
	// MethodExact means the exact pipeline finished within its budget and
	// the result carries exact Shapley values.
	MethodExact Method = iota
	// MethodProxy means the exact pipeline timed out and the ranking was
	// produced by CNF Proxy.
	MethodProxy
	// MethodApprox means a request budget was exhausted (or approximation
	// was requested outright) and the values are Monte Carlo estimates with
	// 95% confidence intervals (see ApproxResult).
	MethodApprox
)

func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodApprox:
		return "approximate"
	default:
		return "cnf-proxy"
	}
}

// HybridResult is the outcome of the hybrid strategy: exact values when the
// exact pipeline succeeded, otherwise a CNF Proxy ranking — or, under an
// enabled ExplainBudget, sampled estimates with confidence intervals.
type HybridResult struct {
	Method  Method
	Values  Values        // exact Shapley values; nil unless Method == MethodExact
	Proxy   ProxyValues   // proxy scores; nil unless Method == MethodProxy
	Approx  *ApproxResult // sampled estimates; nil unless Method == MethodApprox
	Ranking []db.FactID   // facts by decreasing contribution
	Exact   *PipelineResult
	Elapsed time.Duration
	// DegradedCause says why a budgeted request degraded to MethodApprox
	// ("mode", "node_budget", "deadline", or "error"; see the Cause*
	// constants). Empty for exact and proxy results.
	DegradedCause string
}

// Hybrid runs the hybrid strategy of Section 6.3: one exact attempt under
// opts's limits (the paper's budget t is opts.CompileTimeout and
// opts.ShapleyTimeout, recommended 2.5 s), then one fallback when it fails.
// The fallback is CNF Proxy — the provenance's Tseytin CNF ranked by proxy
// values — unless budget is Enabled, in which case it is ApproxStage, sampled
// estimates with confidence intervals. An enabled budget also narrows the
// exact attempt: its MaxNodes caps the compiled d-DNNF (the smaller of it and
// opts.CompileMaxNodes wins), its Deadline bounds the whole attempt on top of
// ctx, and ModeApproximate skips the attempt entirely. A non-nil error is
// returned only when ctx itself is cancelled: exhausting a limit is what the
// fallback is for, but a caller that gave up wants neither answer.
func Hybrid(ctx context.Context, elin *circuit.Node, endo []db.FactID, opts PipelineOptions, budget ExplainBudget) (*HybridResult, error) {
	start := time.Now()
	anytime := budget.Enabled()
	var res *PipelineResult
	var err error
	if budget.Mode != ModeApproximate {
		ectx := ctx
		if anytime {
			if budget.MaxNodes > 0 && (opts.CompileMaxNodes == 0 || budget.MaxNodes < opts.CompileMaxNodes) {
				opts.CompileMaxNodes = budget.MaxNodes
			}
			// The budget deadline is layered over the caller's context,
			// exactly like ShapleyStage's stage deadline: when it fires we
			// degrade, when the caller's own context fires we abort.
			if budget.Deadline > 0 {
				var cancel context.CancelFunc
				ectx, cancel = context.WithTimeout(ctx, budget.Deadline)
				defer cancel()
			}
		}
		res, err = ExplainCircuit(ectx, elin, endo, opts)
		if err == nil {
			return &HybridResult{
				Method:  MethodExact,
				Values:  res.Values,
				Ranking: res.Values.Ranking(),
				Exact:   res,
				Elapsed: time.Since(start),
			}, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
	}
	cause := degradeCause(budget, err)
	if anytime {
		approx, err := approxStage(ctx, elin, endo, budget, cause)
		if err != nil {
			return nil, err
		}
		return &HybridResult{
			Method:        MethodApprox,
			Approx:        approx,
			Ranking:       approx.Ranking(),
			Elapsed:       time.Since(start),
			DegradedCause: cause,
		}, nil
	}
	// Without a budget the exact attempt ran under ctx itself, which is not
	// done, so it produced the Tseytin CNF (linear in the circuit, it never
	// times out).
	_, psp := trace.Start(ctx, "proxy")
	psp.Set("cause", cause)
	proxy := CNFProxy(res.CNF, endo)
	psp.End()
	return &HybridResult{
		Method:  MethodProxy,
		Proxy:   proxy,
		Ranking: proxy.Ranking(),
		Exact:   res,
		Elapsed: time.Since(start),
	}, nil
}
