// Package metrics implements the evaluation metrics of Section 6.2: nDCG
// (and nDCG@k), Precision@k, L1/L2 distances between value vectors, plus the
// percentile summaries used in Table 1 — and the request recorder behind the
// explanation service's GET /metrics.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/db"
)

// NDCG computes the normalized discounted cumulative gain of the predicted
// ranking against ground-truth relevance scores. The predicted ranking is
// scored by the true relevance of the items it placed at each position; the
// ideal ranking orders items by true relevance. Negative relevances are
// shifted to zero (standard practice; Shapley values of monotone lineage
// are non-negative anyway). Returns 1 for degenerate (all-zero) truths.
func NDCG(predicted []db.FactID, truth map[db.FactID]float64) float64 {
	return NDCGAt(predicted, truth, len(predicted))
}

// NDCGAt is NDCG truncated to the top k positions.
func NDCGAt(predicted []db.FactID, truth map[db.FactID]float64, k int) float64 {
	if k > len(predicted) {
		k = len(predicted)
	}
	rel := make([]float64, 0, len(truth))
	min := 0.0
	for _, v := range truth {
		if v < min {
			min = v
		}
	}
	for _, v := range truth {
		rel = append(rel, v-min)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(rel)))

	dcg := 0.0
	for i := 0; i < k; i++ {
		g := truth[predicted[i]] - min
		dcg += g / math.Log2(float64(i)+2)
	}
	idcg := 0.0
	for i := 0; i < k && i < len(rel); i++ {
		idcg += rel[i] / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

// PrecisionAt computes |top-k(predicted) ∩ top-k(ideal)| / k, where the
// ideal top-k is derived from the ground-truth scores (ties broken by fact
// ID, matching the deterministic ranking convention used throughout).
func PrecisionAt(predicted []db.FactID, truth map[db.FactID]float64, k int) float64 {
	ideal := RankByScore(truth)
	if k > len(predicted) {
		k = len(predicted)
	}
	if k > len(ideal) {
		k = len(ideal)
	}
	if k == 0 {
		return 1
	}
	top := make(map[db.FactID]bool, k)
	for _, id := range ideal[:k] {
		top[id] = true
	}
	hits := 0
	for _, id := range predicted[:k] {
		if top[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// RankByScore returns fact IDs by decreasing score, ties broken by ID.
func RankByScore(scores map[db.FactID]float64) []db.FactID {
	ids := make([]db.FactID, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] > scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// L1 returns the mean absolute error between approximate and exact scores,
// over the keys of exact.
func L1(approx, exact map[db.FactID]float64) float64 {
	if len(exact) == 0 {
		return 0
	}
	sum := 0.0
	for id, e := range exact {
		sum += math.Abs(approx[id] - e)
	}
	return sum / float64(len(exact))
}

// L2 returns the mean squared error between approximate and exact scores.
func L2(approx, exact map[db.FactID]float64) float64 {
	if len(exact) == 0 {
		return 0
	}
	sum := 0.0
	for id, e := range exact {
		d := approx[id] - e
		sum += d * d
	}
	return sum / float64(len(exact))
}

// Summary holds the distribution statistics reported per query in Table 1.
type Summary struct {
	Mean, P25, P50, P75, P99 float64
}

// Summarize computes mean and percentiles of a sample (nearest-rank
// percentiles on the sorted data). An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		Mean: sum / float64(len(sorted)),
		P25:  percentile(sorted, 0.25),
		P50:  percentile(sorted, 0.50),
		P75:  percentile(sorted, 0.75),
		P99:  percentile(sorted, 0.99),
	}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Recorder aggregates per-route request counters for a serving process —
// completions by HTTP status, sheds, panics, timeouts and degradation
// causes — next to cumulative request and pipeline-stage latency
// histograms, all exported by WritePrometheus. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	routes map[string]*routeRecord
	// stages holds cumulative per-pipeline-stage duration histograms, fed by
	// trace span observers (ObserveStage).
	stages map[string]*histogram
}

type routeRecord struct {
	sheds   int64            // requests refused by admission control (429)
	panics  int64            // handler panics recovered into 500s
	timeout int64            // requests cut off by the per-request deadline (504)
	codes   map[int]int64    // completed requests by HTTP status code
	hist    histogram        // cumulative request latency histogram
	causes  map[string]int64 // degraded requests by cause label
}

// NewRecorder returns an empty request recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		start:  time.Now(),
		routes: make(map[string]*routeRecord),
		stages: make(map[string]*histogram),
	}
}

// Observe records one completed request: its route label, HTTP status, and
// latency.
func (r *Recorder) Observe(route string, status int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.route(route)
	rec.codes[status]++
	rec.hist.observe(d.Seconds())
}

// ObserveStage records one pipeline-stage duration into the stage's
// cumulative histogram. Its signature matches trace.Observer, so a Recorder
// can be wired directly as a trace root's observer.
func (r *Recorder) ObserveStage(stage string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.stages[stage]
	if h == nil {
		h = &histogram{}
		r.stages[stage] = h
	}
	h.observe(d.Seconds())
}

// route returns (creating if needed) the record for a route label. Callers
// must hold r.mu.
func (r *Recorder) route(label string) *routeRecord {
	rec := r.routes[label]
	if rec == nil {
		rec = &routeRecord{codes: make(map[int]int64), causes: make(map[string]int64)}
		r.routes[label] = rec
	}
	return rec
}

// Shed counts one request refused by admission control. Shed requests also
// flow through Observe (with their 429 status); this counter separates
// load-shedding from other errors.
func (r *Recorder) Shed(route string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.route(route).sheds++
}

// Panicked counts one handler panic recovered into a 500. A plain 500
// cannot be told apart from a panic by status alone, so the recovery
// middleware reports panics here explicitly.
func (r *Recorder) Panicked(route string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.route(route).panics++
}

// TimedOut counts one request cut off by the per-request deadline.
func (r *Recorder) TimedOut(route string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.route(route).timeout++
}

// DegradedCause counts one degradation cause ("mode", "node_budget",
// "deadline", "error") for a route, feeding the labeled
// repro_degraded_total{route,cause} counter. Degraded requests still
// succeed (they flow through Observe with a 2xx status); a request degraded
// for several distinct causes (different tuples) counts once per cause.
func (r *Recorder) DegradedCause(route, cause string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.route(route).causes[cause]++
}

// Median returns the nearest-rank median of the sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	return percentile(sorted, 0.50)
}

// Mean returns the arithmetic mean of the sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
