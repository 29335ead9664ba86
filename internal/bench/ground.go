package bench

// BENCH_ground.json: grounding-stage performance, emitted by
// cmd/groundbench so the evaluation layer's trajectory is tracked across
// commits the same way BENCH_shapley.json tracks Algorithm 1. Each point
// times one (scale, engine) cell of the matrix — the streaming iterator
// pipeline versus the materialized reference evaluator — over the full
// TPC-H query set, recording wall clock, grounding throughput in
// facts/sec, and the allocation footprint (the streaming engine's reason
// to exist: it never materializes intermediate binding tables). The
// comparisons section reduces each scale to the two headline ratios.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// Engine labels for GroundPoint.Engine.
const (
	EngineStreaming    = "streaming"
	EngineMaterialized = "materialized"
)

// GroundPoint is one timed cell of the grounding matrix.
type GroundPoint struct {
	Scale  float64 `json:"scale"`
	Engine string  `json:"engine"`
	// Facts is the database size; Queries the number of UCQs grounded over
	// it; Answers the total output tuples across them.
	Facts   int `json:"facts"`
	Queries int `json:"queries"`
	Answers int `json:"answers"`
	// Millis is the wall clock for grounding all queries; FactsPerSec the
	// grounding throughput (facts × queries per second).
	Millis      float64 `json:"ms"`
	FactsPerSec float64 `json:"facts_per_sec"`
	// AllocBytes is the heap allocated during grounding (TotalAlloc delta
	// around the run) — the proxy for the peak working set a fully
	// materialized evaluation drags in.
	AllocBytes uint64 `json:"alloc_bytes"`
}

// GroundComparison reduces one scale to the streaming engine's headline
// ratios against the materialized baseline.
type GroundComparison struct {
	Scale float64 `json:"scale"`
	// SpeedupX is materialized time / streaming time (> 1 = streaming
	// faster); AllocReduction is the fraction of the materialized
	// engine's allocations the streaming engine avoids (0.5 = half).
	SpeedupX       float64 `json:"speedup_x"`
	AllocReduction float64 `json:"alloc_reduction"`
}

// GroundBench is the top-level BENCH_ground.json document.
type GroundBench struct {
	GeneratedAt string             `json:"generated_at"`
	MaxProcs    int                `json:"maxprocs"`
	Dataset     string             `json:"dataset"`
	Points      []GroundPoint      `json:"points"`
	Comparisons []GroundComparison `json:"comparisons"`
}

// RunGroundBench times the grounding matrix on TPC-H: for every scale it
// generates the dataset once and grounds every TPC-H query with both
// engines. The two engines' answer sets are
// always cross-checked (tuples, order, and lineage variable sets must be
// identical — the streaming rewrite's correctness bar); any divergence is
// an error, not a skewed number.
func RunGroundBench(ctx context.Context, scales []float64) (*GroundBench, error) {
	rep := &GroundBench{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		MaxProcs:    runtime.GOMAXPROCS(0),
		Dataset:     "tpch",
	}
	queries := tpch.Queries()
	for _, scale := range scales {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := tpch.Generate(tpch.DefaultConfig().Scaled(scale))
		var sigs [2][]string
		var pts [2]GroundPoint
		for i, eng := range []string{EngineStreaming, EngineMaterialized} {
			pt, sig, err := groundOnce(ctx, d, queries, scale, eng)
			if err != nil {
				return nil, err
			}
			pts[i], sigs[i] = *pt, sig
		}
		if err := sameAnswers(sigs[0], sigs[1]); err != nil {
			return nil, fmt.Errorf("bench: scale %g: %w", scale, err)
		}
		rep.Points = append(rep.Points, pts[0], pts[1])
		cmp := GroundComparison{Scale: scale}
		if pts[0].Millis > 0 {
			cmp.SpeedupX = pts[1].Millis / pts[0].Millis
		}
		if pts[1].AllocBytes > 0 {
			cmp.AllocReduction = 1 - float64(pts[0].AllocBytes)/float64(pts[1].AllocBytes)
		}
		rep.Comparisons = append(rep.Comparisons, cmp)
	}
	return rep, nil
}

// groundOnce grounds every query with one engine, returning the timed point
// and the answer signature (tuple key plus sorted lineage variables, per
// answer, per query) used to cross-check engines.
func groundOnce(ctx context.Context, d *db.Database, queries []tpch.BenchQuery,
	scale float64, eng string) (*GroundPoint, []string, error) {

	eval := engine.Eval
	if eng == EngineMaterialized {
		eval = engine.EvalMaterialized
	}
	var sig []string
	answers := 0

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, nq := range queries {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cb := circuit.NewBuilder()
		as, err := eval(d, nq.Q, cb, engine.Options{Mode: engine.ModeEndogenous})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s on %s: %w", eng, nq.Name, err)
		}
		answers += len(as)
		for _, a := range as {
			vars := circuit.Vars(a.Lineage)
			sig = append(sig, fmt.Sprintf("%s|%s|%v", nq.Name, a.Tuple.Key(), vars))
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)

	pt := &GroundPoint{
		Scale:      scale,
		Engine:     eng,
		Facts:      d.NumFacts(),
		Queries:    len(queries),
		Answers:    answers,
		Millis:     float64(elapsed) / float64(time.Millisecond),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if s := elapsed.Seconds(); s > 0 {
		pt.FactsPerSec = float64(d.NumFacts()*len(queries)) / s
	}
	return pt, sig, nil
}

// sameAnswers checks two engines' answer signatures element-for-element.
func sameAnswers(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("engines disagree: %d vs %d answers", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("engines disagree at answer %d: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}

// WriteGroundBench writes the report as indented JSON.
func WriteGroundBench(path string, rep *GroundBench) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
