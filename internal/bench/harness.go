// Package bench is the experiment harness: it runs the full pipeline over
// the TPC-H and IMDB query suites, collects per-output-tuple measurements,
// and renders the paper's evaluation artifacts — Table 1, Table 2, and
// Figures 4 through 8 — as text tables with the same rows/series the paper
// reports.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/imdb"
	"repro/internal/query"
	"repro/internal/tpch"
)

// NamedQuery is a suite entry.
type NamedQuery struct {
	Name string
	Q    *query.UCQ
}

// Options configures a corpus run and the Figure 5 scaling run.
type Options struct {
	// Timeout is the exact-computation budget per output tuple (both the
	// compilation and Algorithm 1 step get this budget), mirroring the
	// paper's per-tuple timeout. Zero means no limit.
	Timeout time.Duration
	// MaxNodes bounds d-DNNF size, standing in for memory exhaustion.
	MaxNodes int
	// TPCH and IMDB control the generated instance sizes; TPCH is also the
	// scaling run's base.
	TPCH tpch.Config
	IMDB imdb.Config
	// MaxTuplesPerQuery truncates very large query outputs to keep harness
	// runs bounded; zero means no truncation.
	MaxTuplesPerQuery int
	// Workers fans Algorithm 1's per-fact loop out across goroutines for
	// each tuple (≤ 0 = GOMAXPROCS, 1 = serial). Tuples themselves run
	// serially so per-tuple timings stay comparable to the paper's.
	Workers int
	// Strategy selects the Algorithm 1 evaluation mode (auto, per-fact, or
	// gradient); the values are identical, only the cost differs.
	Strategy core.ShapleyStrategy
	// CacheSize sizes a cross-call value cache shared by each suite's
	// corpus run; zero disables it (every tuple compiles afresh, the
	// configuration the paper's tables measure). The scaling run never
	// uses one.
	CacheSize int
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	return Options{
		Timeout:  2500 * time.Millisecond,
		MaxNodes: 2_000_000,
		TPCH:     tpch.DefaultConfig(),
		IMDB:     imdb.DefaultConfig(),
	}
}

// pipeline maps o to the exact pipeline's options for one output tuple,
// with cache (nil for none) as its value cache.
func (o Options) pipeline(cache *core.ValueCache) core.PipelineOptions {
	return core.PipelineOptions{
		CompileTimeout:  o.Timeout,
		CompileMaxNodes: o.MaxNodes,
		ShapleyTimeout:  o.Timeout,
		Workers:         o.Workers,
		Strategy:        o.Strategy,
		Cache:           cache,
	}
}

// TupleResult holds all measurements for one output tuple.
type TupleResult struct {
	Dataset string
	Query   string
	Tuple   db.Tuple

	NumFacts   int // distinct endogenous facts in the lineage
	NumClauses int // Tseytin CNF clauses
	DNNFSize   int // nodes after Lemma 4.6 (0 on failure)

	KCTime      time.Duration // Tseytin + compile + eliminate
	ShapleyTime time.Duration // Algorithm 1 over all facts
	Success     bool
	FailReason  string

	Values core.Values // exact Shapley values (nil on failure)
	ELin   *circuit.Node
	CNF    *cnf.Formula
	Endo   []db.FactID
}

// ExactTotal is the exact pipeline's wall-clock cost for this tuple.
func (t *TupleResult) ExactTotal() time.Duration { return t.KCTime + t.ShapleyTime }

// QueryRun holds all measurements for one query.
type QueryRun struct {
	Dataset  string
	Name     string
	Q        *query.UCQ
	ExecTime time.Duration // provenance generation (query evaluation)
	Tuples   []*TupleResult
	// CacheStats is the value-cache counter delta attributable to this
	// query's tuples — its canonical hit rate says how much isomorphic
	// lineage the query's answers share. Zero when the corpus ran without
	// a cross-call cache.
	CacheStats core.CacheStats
}

// SuccessRate returns the fraction of output tuples whose exact computation
// succeeded.
func (r *QueryRun) SuccessRate() float64 {
	if len(r.Tuples) == 0 {
		return 1
	}
	n := 0
	for _, t := range r.Tuples {
		if t.Success {
			n++
		}
	}
	return float64(n) / float64(len(r.Tuples))
}

// Corpus is the full set of per-tuple measurements across both suites.
type Corpus struct {
	Runs []*QueryRun
}

// Tuples iterates all tuple results across runs.
func (c *Corpus) Tuples() []*TupleResult {
	var out []*TupleResult
	for _, r := range c.Runs {
		out = append(out, r.Tuples...)
	}
	return out
}

// SuccessfulTuples returns the tuples with exact ground truth available and
// at least two provenance facts (the population used for the inexact-method
// comparisons).
func (c *Corpus) SuccessfulTuples() []*TupleResult {
	var out []*TupleResult
	for _, t := range c.Tuples() {
		if t.Success && t.NumFacts >= 2 {
			out = append(out, t)
		}
	}
	return out
}

// RunCorpus generates both databases and runs both query suites.
func RunCorpus(ctx context.Context, opts Options) (*Corpus, error) {
	c := &Corpus{}

	tpchDB := tpch.Generate(opts.TPCH)
	var tq []NamedQuery
	for _, q := range tpch.Queries() {
		tq = append(tq, NamedQuery{Name: q.Name, Q: q.Q})
	}
	runs, err := RunSuite(ctx, "TPC-H", tpchDB, tq, opts)
	if err != nil {
		return nil, err
	}
	c.Runs = append(c.Runs, runs...)

	imdbDB := imdb.Generate(opts.IMDB)
	var iq []NamedQuery
	for _, q := range imdb.Queries() {
		iq = append(iq, NamedQuery{Name: q.Name, Q: q.Q})
	}
	runs, err = RunSuite(ctx, "IMDB", imdbDB, iq, opts)
	if err != nil {
		return nil, err
	}
	c.Runs = append(c.Runs, runs...)
	return c, nil
}

// RunSuite evaluates every query of a suite over the database and runs the
// exact pipeline on every output tuple.
func RunSuite(ctx context.Context, dataset string, d *db.Database, queries []NamedQuery, opts Options) ([]*QueryRun, error) {
	endo := make([]db.FactID, 0, d.NumEndogenous())
	for _, f := range d.EndogenousFacts() {
		endo = append(endo, f.ID)
	}
	var cache *core.ValueCache
	if opts.CacheSize > 0 {
		cache = core.NewValueCache(opts.CacheSize)
	}
	var out []*QueryRun
	for _, nq := range queries {
		run := &QueryRun{Dataset: dataset, Name: nq.Name, Q: nq.Q}
		cb := circuit.NewBuilder()
		t0 := time.Now()
		answers, err := engine.Eval(d, nq.Q, cb, engine.Options{Mode: engine.ModeEndogenous})
		run.ExecTime = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", dataset, nq.Name, err)
		}
		if opts.MaxTuplesPerQuery > 0 && len(answers) > opts.MaxTuplesPerQuery {
			answers = answers[:opts.MaxTuplesPerQuery]
		}
		var before core.CacheStats
		if cache != nil {
			before = cache.Stats()
		}
		for _, a := range answers {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			run.Tuples = append(run.Tuples, runTuple(ctx, dataset, nq.Name, a, endoForLineage(a.Lineage, endo), opts, cache))
		}
		if cache != nil {
			run.CacheStats = cache.Stats().Sub(before)
		}
		out = append(out, run)
	}
	return out, nil
}

// endoForLineage restricts the endogenous universe to the facts occurring
// in the lineage. The facts outside the lineage are null players whose
// Shapley value is identically zero; excluding them from the per-tuple
// universe matches the paper's per-output-tuple analysis ("the contribution
// of all relevant input facts") and keeps |Dn| per tuple equal to the
// number of distinct provenance facts.
func endoForLineage(lineage *circuit.Node, endo []db.FactID) []db.FactID {
	inLineage := make(map[db.FactID]bool)
	for _, v := range circuit.Vars(lineage) {
		inLineage[db.FactID(v)] = true
	}
	out := make([]db.FactID, 0, len(inLineage))
	for _, f := range endo {
		if inLineage[f] {
			out = append(out, f)
		}
	}
	return out
}

func runTuple(ctx context.Context, dataset, qname string, a engine.Answer, endo []db.FactID, opts Options, cache *core.ValueCache) *TupleResult {
	tr := &TupleResult{
		Dataset:  dataset,
		Query:    qname,
		Tuple:    a.Tuple,
		ELin:     a.Lineage,
		Endo:     endo,
		NumFacts: len(circuit.Vars(a.Lineage)),
	}
	res, err := core.ExplainCircuit(ctx, a.Lineage, endo, opts.pipeline(cache))
	tr.CNF = res.CNF
	tr.NumClauses = res.NumClauses
	tr.KCTime = res.TseytinTime + res.CompileTime
	tr.ShapleyTime = res.ShapleyTime
	tr.DNNFSize = res.DNNFSize
	if err != nil {
		tr.FailReason = err.Error()
		return tr
	}
	tr.Success = true
	tr.Values = res.Values
	return tr
}
