// Command shapley computes Shapley values of database facts for query
// answers, end to end: it loads one of the built-in datasets (the paper's
// flights running example, or a synthetic TPC-H or IMDB instance), runs a
// query — either a named suite query or one given in datalog syntax — and
// prints the ranked fact contributions for every output tuple.
//
// Usage:
//
//	shapley -dataset flights
//	shapley -dataset tpch -query q3 -timeout 2.5s
//	shapley -dataset imdb -query 8d -top 5
//	shapley -dataset tpch -q "q(ck) :- customer(ck, cn, nk, seg, cb), orders(ok, ck, os, tp, od, op)"
//	shapley -dataset flights -method proxy
//	shapley -dataset flights -approx        # sampled estimates with 95% CIs
//	shapley -dataset tpch -budget 50ms      # exact within budget, else degrade
//	shapley -dataset flights -json          # machine-readable (wire) output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/flights"
	"repro/internal/imdb"
	"repro/internal/optflags"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	var (
		dataset = flag.String("dataset", "flights", "dataset: flights, tpch, or imdb")
		queryNm = flag.String("query", "", "named suite query (e.g. q3 for tpch, 8d for imdb); default: the dataset's demo query")
		queryTx = flag.String("q", "", "inline datalog query text (overrides -query)")
		top     = flag.Int("top", 10, "how many facts to print per output tuple")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor for tpch/imdb")
		method  = flag.String("method", "hybrid", "hybrid (exact with proxy fallback) or proxy (force CNF Proxy via zero budget)")
		asJSON  = flag.Bool("json", false, "emit the machine-readable wire encoding (the same JSON the shapleyd service serves) instead of text")
		approx  = flag.Bool("approx", false, "skip the exact pipeline and sample Shapley estimates with 95% confidence intervals")
		budget  = flag.Duration("budget", 0, "anytime budget: exact-attempt deadline before degrading to sampled estimates (0 = no anytime tier)")
		seed    = flag.Int64("seed", 0, "sampling seed perturbation (0 = the canonical lineage-derived seed)")
		doTrace = flag.Bool("trace", false, "record per-stage spans (ground, tseytin, compile, shapley, ...) and print the span tree — or attach it to -json output")
		parsed  = optflags.Register(flag.CommandLine)
	)
	flag.Parse()

	// Interrupt cancels the in-flight explanation instead of killing the
	// process mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	d, q, err := load(*dataset, *queryNm, *queryTx, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shapley:", err)
		os.Exit(1)
	}

	opts := *parsed
	if *method == "proxy" {
		// A 1-node budget forces the proxy path without waiting.
		opts.MaxNodes = 1
		opts.Timeout = time.Millisecond
	}
	opts.Budget.Deadline, opts.Budget.Seed = *budget, *seed
	if *approx {
		opts.Budget.Mode = repro.ModeApproximate
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "shapley:", err)
		os.Exit(1)
	}

	// With -trace, the whole run executes under a collecting span root — the
	// same instrumentation the shapleyd service exposes per request.
	var root *trace.Span
	if *doTrace {
		ctx, root = trace.NewRoot(ctx, "explain", nil)
	}
	start := time.Now()
	explanations, err := repro.Explain(ctx, d, q, opts)
	root.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shapley:", err)
		os.Exit(1)
	}
	if *asJSON {
		// The shapleyd service renders its explain bodies with the same
		// writer, so a CLI run and a served response for the same database
		// state are diffable.
		resp := wire.ExplainResponse{
			Dataset:   *dataset,
			Query:     q.String(),
			ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		}
		if root != nil {
			resp.Trace = root.Snapshot()
		}
		body, err := wire.AppendExplainResponse(nil, d, &resp, explanations, *top)
		if err == nil {
			_, err = os.Stdout.Write(body)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "shapley:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("query:\n%s\n\n%d output tuple(s) in %v\n\n", q, len(explanations), time.Since(start))
	for _, e := range explanations {
		tuple := e.Tuple.String()
		if len(e.Tuple) == 0 {
			tuple = "(yes)"
		}
		if e.Method == repro.MethodApprox {
			fmt.Printf("answer %s — %d provenance fact(s), method=%v (%d samples, seed %d), %v\n",
				tuple, e.NumFacts, e.Method, e.Samples, e.ApproxSeed, e.Elapsed.Round(time.Microsecond))
		} else {
			fmt.Printf("answer %s — %d provenance fact(s), method=%v, %v\n",
				tuple, e.NumFacts, e.Method, e.Elapsed.Round(time.Microsecond))
		}
		for rank, f := range e.TopFacts(*top) {
			fact := d.Fact(f)
			if e.Method == repro.MethodApprox {
				est := e.Approx[f]
				fmt.Printf("  %2d. %-60s %.6f  95%% CI [%.6f, %.6f]\n",
					rank+1, factLabel(fact), est.Value, est.CILow, est.CIHigh)
			} else {
				fmt.Printf("  %2d. %-60s %.6f\n", rank+1, factLabel(fact), e.Score(f))
			}
		}
		fmt.Println()
	}
	if root != nil {
		fmt.Println("stage trace:")
		printSpan(root.Snapshot(), 0)
	}
}

// printSpan renders a span tree, one indented line per stage with its wall
// time and attributes.
func printSpan(n *wire.TraceSpan, depth int) {
	attrs := ""
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%v", k, n.Attrs[k])
		}
		attrs = "  [" + strings.Join(parts, " ") + "]"
	}
	fmt.Printf("%s%-10s %9.3fms%s\n", strings.Repeat("  ", depth+1), n.Name, n.DurationMs, attrs)
	for _, c := range n.Children {
		printSpan(c, depth+1)
	}
}

func factLabel(f *db.Fact) string {
	if f == nil {
		return "(unknown fact)"
	}
	return fmt.Sprintf("%s%s", f.Relation, f.Tuple)
}

func load(dataset, queryNm, queryTx string, scale float64) (*repro.Database, *repro.Query, error) {
	var d *repro.Database
	switch dataset {
	case "flights":
		d, _ = flights.Build()
	case "tpch":
		d = tpch.Generate(tpch.DefaultConfig().Scaled(scale))
	case "imdb":
		d = imdb.Generate(imdb.DefaultConfig().Scaled(scale))
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want flights, tpch, or imdb)", dataset)
	}

	if queryTx != "" {
		q, err := repro.ParseQuery(queryTx)
		if err != nil {
			return nil, nil, err
		}
		return d, q, nil
	}

	switch dataset {
	case "flights":
		return d, flights.Query(), nil
	case "tpch":
		if queryNm == "" {
			queryNm = "q3"
		}
		for _, bq := range tpch.Queries() {
			if bq.Name == queryNm {
				return d, bq.Q, nil
			}
		}
		return nil, nil, fmt.Errorf("unknown tpch query %q", queryNm)
	default: // imdb
		if queryNm == "" {
			queryNm = "1a"
		}
		for _, bq := range imdb.Queries() {
			if bq.Name == queryNm {
				return d, bq.Q, nil
			}
		}
		return nil, nil, fmt.Errorf("unknown imdb query %q", queryNm)
	}
}
