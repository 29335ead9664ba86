package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// StageApprox is the pipeline's anytime fallback stage: Monte Carlo
// permutation sampling over the already-grounded lineage circuit, run when
// StageCompile or StageShapley exceeds a request's compute budget (or when
// the request asks for approximation outright). Unlike the exact stages it
// needs no knowledge compilation — it evaluates the lineage directly — so it
// always produces an answer, with per-fact 95% confidence intervals instead
// of exact rationals.
const StageApprox StageName = "approx"

// Estimate is one fact's sampled Shapley value with a 95% confidence
// interval (re-exported from internal/sampling).
type Estimate = sampling.Estimate

// ExplainMode says how a budgeted request wants exactness traded for
// latency.
type ExplainMode uint8

const (
	// ModeAuto (the default) tries the exact pipeline within the budget and
	// falls back to sampling when it is exceeded.
	ModeAuto ExplainMode = iota
	// ModeExact disables the budget even when its knobs are set: the exact
	// attempt runs under the pipeline's own limits and degrades to CNF Proxy.
	ModeExact
	// ModeApproximate skips the exact attempt and samples immediately.
	ModeApproximate
)

func (m ExplainMode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeApproximate:
		return "approximate"
	default:
		return "auto"
	}
}

// ParseExplainMode parses "auto" (or ""), "exact", or "approximate"
// ("approx" is accepted as shorthand).
func ParseExplainMode(s string) (ExplainMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return ModeAuto, nil
	case "exact":
		return ModeExact, nil
	case "approx", "approximate":
		return ModeApproximate, nil
	}
	return ModeAuto, fmt.Errorf("core: unknown explain mode %q (want auto, exact, or approximate)", s)
}

// ExplainBudget is a per-request compute budget for one explanation: how
// much the exact pipeline may spend before the anytime tier answers with
// sampled estimates instead. The zero value disables the tier entirely
// (requests behave exactly as before this stage existed).
type ExplainBudget struct {
	// MaxNodes bounds the compiled d-DNNF size for the exact attempt; past
	// it, compilation aborts and the request degrades to sampling. Zero
	// defers to the pipeline's own MaxNodes.
	MaxNodes int
	// Deadline bounds the exact attempt's wall clock (layered over the
	// caller's context, like ShapleyStage's stage deadline); zero means no
	// per-request deadline.
	Deadline time.Duration
	// MinSamples floors the sampler's permutation count (≤ 0 = the sampling
	// default); the estimate after exactly MinSamples permutations is
	// deterministic given the seed.
	MinSamples int
	// TargetCI is the 95%-CI half-width the sampler refines toward after
	// MinSamples (0 = the sampling default; ≥ 1 disables refinement).
	TargetCI float64
	// Mode picks the degradation policy; see ExplainMode.
	Mode ExplainMode
	// Seed perturbs the canonical lineage-derived sampling seed (0 = the
	// canonical seed). Runs with equal lineage, budget, and seed reproduce
	// bit-identical estimates.
	Seed int64
}

// Enabled reports whether the budget activates the sampling fallback: an
// explicit approximate mode, or any exhaustion trigger (node budget or
// deadline) outside ModeExact.
func (b ExplainBudget) Enabled() bool {
	if b.Mode == ModeExact {
		return false
	}
	return b.Mode == ModeApproximate || b.MaxNodes > 0 || b.Deadline > 0
}

// ApproxResult is StageApprox's output: sampled per-fact estimates with
// confidence intervals and the sampling provenance.
type ApproxResult struct {
	// Estimates maps every endogenous fact of the lineage to its sampled
	// value with 95% CI bounds.
	Estimates map[db.FactID]Estimate
	// Permutations and Evals are the sampling spend.
	Permutations int
	Evals        int
	// Seed reproduces the run (derived from the lineage fingerprint and the
	// budget's Seed override).
	Seed int64
}

// Ranking returns the facts by decreasing estimated value, ties broken by
// ascending fact ID — the same convention as the exact and proxy rankings.
func (a *ApproxResult) Ranking() []db.FactID {
	ids := make([]db.FactID, 0, len(a.Estimates))
	for id := range a.Estimates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		vi, vj := a.Estimates[ids[i]].Value, a.Estimates[ids[j]].Value
		if vi != vj {
			return vi > vj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// ApproxStage runs the anytime fallback: it flattens the endogenous lineage
// into a sampling game, derives a deterministic seed from the game's
// rename-invariant fingerprint mixed with the budget's Seed override, and
// samples Shapley estimates with 95% confidence intervals. Endogenous facts
// absent from the lineage get exact-zero estimates (they cannot contribute),
// so every requested fact is covered. The only error is ctx cancellation.
func ApproxStage(ctx context.Context, elin *circuit.Node, endo []db.FactID, b ExplainBudget) (*ApproxResult, error) {
	return approxStage(ctx, elin, endo, b, "")
}

// approxStage is ApproxStage with the degradation cause that routed the
// request here (empty when approximation was invoked directly); the cause is
// recorded on the stage's trace span.
func approxStage(ctx context.Context, elin *circuit.Node, endo []db.FactID, b ExplainBudget, cause string) (*ApproxResult, error) {
	ctx, sp := trace.Start(ctx, string(StageApprox))
	if cause != "" {
		sp.Set("cause", cause)
	}
	defer sp.End()
	game := sampling.NewGame(elin)
	seed := sampling.DeriveSeed(game.Fingerprint(), b.Seed)
	ap, err := game.MonteCarloCI(ctx, seed, sampling.Config{
		MinPermutations: b.MinSamples,
		TargetCI:        b.TargetCI,
	})
	if err != nil {
		return nil, err
	}
	res := &ApproxResult{
		Estimates:    ap.Estimates,
		Permutations: ap.Permutations,
		Evals:        ap.Evals,
		Seed:         ap.Seed,
	}
	for _, id := range endo {
		if _, ok := res.Estimates[id]; !ok {
			res.Estimates[id] = Estimate{}
		}
	}
	sp.Set("samples", res.Permutations)
	sp.Set("seed", res.Seed)
	return res, nil
}

// Degradation causes recorded on traces and exported as labeled counters:
// why a budgeted request answered with sampled estimates instead of exact
// values.
const (
	// CauseMode: the request asked for approximation outright.
	CauseMode = "mode"
	// CauseNodeBudget: the exact attempt exceeded the d-DNNF node budget.
	CauseNodeBudget = "node_budget"
	// CauseDeadline: the exact attempt's wall-clock budget fired.
	CauseDeadline = "deadline"
	// CauseError: the exact attempt failed for another reason.
	CauseError = "error"
)

// degradeCause classifies why an exact attempt under budget b degraded to
// its fallback, given the attempt's error (nil only when Mode skipped it).
func degradeCause(b ExplainBudget, err error) string {
	switch {
	case b.Mode == ModeApproximate:
		return CauseMode
	case errors.Is(err, dnnf.ErrNodeBudget):
		return CauseNodeBudget
	case errors.Is(err, dnnf.ErrTimeout), errors.Is(err, ErrShapleyTimeout),
		errors.Is(err, context.DeadlineExceeded):
		return CauseDeadline
	default:
		return CauseError
	}
}
