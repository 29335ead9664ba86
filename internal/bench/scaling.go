package bench

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// RunScaling reproduces Figure 5: Algorithm 1 running time for
// representative TPC-H query outputs as a function of the lineitem table
// size. For each scale factor the database is regenerated from opts.TPCH
// scaled (same seed, so smaller scales are prefixes in distribution), the
// named queries are evaluated, and the exact pipeline under opts (without a
// value cache) is timed on the first few output tuples of each query.
func RunScaling(ctx context.Context, opts Options, scales []float64, queryNames []string, tuplesPerQuery int) ([]ScalingPoint, error) {

	wanted := make(map[string]bool, len(queryNames))
	for _, n := range queryNames {
		wanted[n] = true
	}
	var out []ScalingPoint
	for _, scale := range scales {
		cfg := opts.TPCH.Scaled(scale)
		d := tpch.Generate(cfg)
		lineitems := len(d.Relation("lineitem").Facts())
		endo := make([]db.FactID, 0, d.NumEndogenous())
		for _, f := range d.EndogenousFacts() {
			endo = append(endo, f.ID)
		}
		for _, nq := range tpch.Queries() {
			if !wanted[nq.Name] {
				continue
			}
			cb := circuit.NewBuilder()
			answers, err := engine.Eval(d, nq.Q, cb, engine.Options{Mode: engine.ModeEndogenous})
			if err != nil {
				return nil, err
			}
			if len(answers) > tuplesPerQuery {
				answers = answers[:tuplesPerQuery]
			}
			for _, a := range answers {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				tupleEndo := endoForLineage(a.Lineage, endo)
				t0 := time.Now()
				res, err := core.ExplainCircuit(ctx, a.Lineage, tupleEndo, opts.pipeline(nil))
				elapsed := time.Since(t0)
				p := ScalingPoint{
					Query:     nq.Name,
					Tuple:     a.Tuple.String(),
					Scale:     scale,
					Lineitems: lineitems,
					NumFacts:  len(circuit.Vars(a.Lineage)),
					Alg1Time:  elapsed,
					Success:   err == nil,
				}
				if err == nil {
					p.Alg1Time = res.ShapleyTime
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}
