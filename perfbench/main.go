// Command perfbench is the repository's benchmark. It runs one workload for a
// fixed time, checks every output against a reference computed during
// set-up, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"explain_p50_ms": {"value": 1.23, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced. With
// -trace 1 the untraced run is followed by a replay of its operations through
// the layers' public functions, each call timed from here, and the metrics
// are the per-layer ones. The line before the result is the run record:
// commit, toolchain, machine, seed and the sample count behind each
// percentile. WORKLOADS.md says why each workload exists and which
// end-to-end metric each per-layer metric should move.
//
// run.sh builds it and runs it from the repository root:
//
//	bash perfbench/run.sh -workload explain-exact -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// gomaxprocs fixes the parallelism of the benchmark and of the daemon it
// starts: the workloads are sized for two cores.
const gomaxprocs = 2

// tailPercentile is the tail latency reported: the highest percentile with
// ten samples beyond it in the few hundred calls a library workload makes in
// a twenty-second window. On explain-exact it falls near the middle of the
// slowest query's calls rather than on their fastest few.
const tailPercentile = 97

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// setups is how many times the run repeats its set-up; setup_s is the
	// median.
	setups int
	// minOps extends the timed window until this many explains are done.
	minOps   int
	shapleyd string
}

// tail is the sample count behind a percentile and how many samples lie
// beyond it.
type tail struct {
	N      int `json:"n"`
	Beyond int `json:"beyond"`
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	// problems are failed checks that belong to no single operation.
	problems []string
	metrics  map[string]float64
	samples  map[string]tail
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), samples: make(map[string]tail)}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// opFailed counts a failed operation and prints the first few reasons.
func (o *outcome) opFailed(err error) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// percentiles sets <name>_p50_ms and <name>_p<tailPercentile>_ms from
// latencies in milliseconds, with the sample counts behind them.
func (o *outcome) percentiles(name string, ms []float64) {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	for _, p := range []int{50, tailPercentile} {
		key := fmt.Sprintf("%s_p%d_ms", name, p)
		o.metrics[key], o.samples[key] = percentile(sorted, p)
	}
}

// percentile returns the nearest-rank p-th percentile of sorted samples and
// the sample count behind it.
func percentile(sorted []float64, p int) (float64, tail) {
	if len(sorted) == 0 {
		return 0, tail{}
	}
	k := max(rank(p, len(sorted))-1, 0)
	return sorted[k], tail{N: len(sorted), Beyond: len(sorted) - 1 - k}
}

// rank is the nearest rank of the p-th percentile of n samples.
func rank(p, n int) int { return int(math.Ceil(float64(p) / 100 * float64(n))) }

// minSamples is the least sample count with ten samples beyond the p-th
// percentile.
func minSamples(p int) int {
	n := 10
	for n-rank(p, n) < 10 {
		n++
	}
	return n
}

type named struct{ name, unit string }

// endToEnd and perLayer list the metrics in the order of BENCHMARK.json.
var endToEnd = []named{
	{"explain_p50_ms", "ms"},
	{"explain_p97_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"exact_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []named{
	{"engine.ground_ms", "ms"},
	{"engine.answers", "count"},
	{"cnf.tseytin_ms", "ms"},
	{"cnf.clauses", "count"},
	{"dnnf.compile_ms", "ms"},
	{"dnnf.aborted_compile_ms", "ms"},
	{"dnnf.budget_trips", "count"},
	{"dnnf.nodes", "count"},
	{"dnnf.decisions", "count"},
	{"core.shapley_ms", "ms"},
	{"core.proxy_ms", "ms"},
	{"sampling.approx_ms", "ms"},
	{"sampling.permutations", "count"},
	{"repro.other_ms", "ms"},
	{"repro.explain_ms", "ms"},
	{"repro.apply_ms", "ms"},
	{"repro.regrounds_per_op", "count"},
	{"repro.recomputed_tuples_per_op", "count"},
	{"dnnf.cache_hit_ratio", "ratio"},
	{"dnnf.invalidations_per_update", "count"},
	{"wire.encode_ms", "ms"},
	{"wire.response_kb", "KB"},
	{"server.pipeline_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.update_batch", "count"},
	{"server.update_p50_ms", "ms"},
	{"server.update_p97_ms", "ms"},
	{"go.alloc_kb_per_op", "KB"},
	{"bench.replay_op_ms", "ms"},
	{"bench.trace_overhead_ms", "ms"},
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"explain-exact":    runLibrary,
	"serve-mixed":      runServe,
	"explain-degraded": runLibrary,
}

func main() {
	var (
		workload = flag.String("workload", "", "explain-exact, serve-mixed or explain-degraded")
		seed     = flag.Int64("seed", 1, "seed of the generated traffic")
		seconds  = flag.Float64("seconds", 10, "length of the timed window in seconds")
		traced   = flag.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
		shapleyd = flag.String("shapleyd", "", "shapleyd binary built from this checkout, for the serve workloads")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload explain-exact|serve-mixed|explain-degraded, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		setups:   3,
		minOps:   minSamples(tailPercentile),
		shapleyd: *shapleyd,
	}
	if cfg.trace {
		cfg.setups = 1 // setup_s is reported by untraced runs only
	}
	out, err := run(context.Background(), cfg)
	if err == nil && cfg.trace {
		// A layer the workload does not run reads 0.
		for _, m := range perLayer {
			if _, ok := out.metrics[m.name]; !ok {
				out.metrics[m.name] = 0
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	report(cfg, out)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics to standard error, then the run record and the
// result to standard output.
func report(cfg config, out *outcome) {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	metrics := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := out.metrics[m.name]
		switch {
		case !ok:
			out.problem("metric %s was not measured", m.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			out.problem("metric %s is %v", m.name, v)
			v = 0
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", m.name, v, m.unit)
	}
	if !cfg.trace {
		for name, t := range out.samples {
			if t.Beyond < 10 {
				out.problem("%s rests on %d samples, %d beyond it; want at least 10 beyond", name, t.N, t.Beyond)
			}
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	emit(newRecord(cfg, out))
	emit(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && len(out.problems) == 0, out.attempted, out.failed, metrics})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
