// Package metrics implements the evaluation metrics of Section 6.2: nDCG
// (and nDCG@k), Precision@k, L1/L2 distances between value vectors, plus the
// percentile summaries used in Table 1 — and the request latency/throughput
// recorder behind the explanation service's GET /v1/stats.
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

// KendallTau returns the Kendall rank correlation between two score maps
// over the keys of the first (−1 .. 1, 1 = identical order). Pairs tied in
// either map are skipped.
func KendallTau(a, b map[db.FactID]float64) float64 {
	ids := make([]db.FactID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	concordant, discordant := 0, 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			da := a[ids[i]] - a[ids[j]]
			dbv := b[ids[i]] - b[ids[j]]
			switch {
			case da*dbv > 0:
				concordant++
			case da*dbv < 0:
				discordant++
			}
		}
	}
	total := concordant + discordant
	if total == 0 {
		return 1
	}
	return float64(concordant-discordant) / float64(total)
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

// Durations converts a slice of time.Duration to seconds for Summarize.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// LatencySummary condenses a latency sample into the percentiles a serving
// dashboard wants. All fields are milliseconds.
type LatencySummary struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// SummarizeLatency computes nearest-rank latency percentiles in
// milliseconds. An empty sample yields zeros.
func SummarizeLatency(ds []time.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	ms := make([]float64, len(ds))
	sum := 0.0
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
		sum += ms[i]
	}
	sort.Float64s(ms)
	return LatencySummary{
		MeanMs: sum / float64(len(ms)),
		P50Ms:  percentile(ms, 0.50),
		P95Ms:  percentile(ms, 0.95),
		P99Ms:  percentile(ms, 0.99),
		MaxMs:  ms[len(ms)-1],
	}
}

// Recorder aggregates per-route request counters for a serving process:
// completed requests, non-2xx outcomes, overall request rate, and latency
// percentiles over a bounded window of the most recent observations (a ring
// buffer, so a long-lived server reports current behavior rather than its
// lifetime average). Safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	start     time.Time
	sampleCap int
	routes    map[string]*routeRecord
	// stages holds cumulative per-pipeline-stage duration histograms, fed by
	// trace span observers (ObserveStage); exported only via WritePrometheus.
	stages map[string]*histogram
}

type routeRecord struct {
	count    int64
	errors   int64
	sheds    int64            // requests refused by admission control (429)
	panics   int64            // handler panics recovered into 500s
	timeout  int64            // requests cut off by the per-request deadline (504)
	degraded int64            // requests answered approximately after budget exhaustion
	samples  []time.Duration  // ring buffer of the last sampleCap latencies
	next     int              // ring write cursor once len == sampleCap
	codes    map[int]int64    // completed requests by HTTP status code
	hist     histogram        // cumulative request latency histogram
	causes   map[string]int64 // degraded requests by cause label
}

// DefaultLatencyWindow is the per-route latency ring size used when
// NewRecorder is asked for a recorder without saying how much history.
const DefaultLatencyWindow = 4096

// NewRecorder returns an empty request recorder keeping up to sampleCap
// latency observations per route (≤ 0 = DefaultLatencyWindow).
func NewRecorder(sampleCap int) *Recorder {
	if sampleCap <= 0 {
		sampleCap = DefaultLatencyWindow
	}
	return &Recorder{
		start:     time.Now(),
		sampleCap: sampleCap,
		routes:    make(map[string]*routeRecord),
		stages:    make(map[string]*histogram),
	}
}

// Observe records one completed request: its route label, HTTP status, and
// latency. Statuses outside 2xx count as errors.
func (r *Recorder) Observe(route string, status int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.route(route)
	rec.count++
	rec.codes[status]++
	rec.hist.observe(d.Seconds())
	if status < 200 || status >= 300 {
		rec.errors++
	}
	if len(rec.samples) < r.sampleCap {
		rec.samples = append(rec.samples, d)
	} else {
		rec.samples[rec.next] = d
		rec.next = (rec.next + 1) % r.sampleCap
	}
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

// Degraded counts one request that exhausted its compute budget and was
// answered with sampled estimates instead of exact values. Degraded requests
// still succeed (they flow through Observe with a 2xx status); this counter
// tracks how often the anytime tier is carrying the load.
func (r *Recorder) Degraded(route string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.route(route).degraded++
}

// DegradedCause counts one degradation cause ("mode", "node_budget",
// "deadline", "error") for a route, feeding the labeled
// repro_degraded_total{route,cause} counter. A request degraded for several
// distinct causes (different tuples) counts once per cause; the aggregate
// Degraded counter stays once-per-request.
func (r *Recorder) DegradedCause(route, cause string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.route(route).causes[cause]++
}

// RouteStats is one route's snapshot from Recorder.Snapshot.
type RouteStats struct {
	Route         string
	Count, Errors int64
	// Sheds, Panics, Timeouts, and Degraded break out the degradation modes:
	// refused by admission control, recovered handler panics, deadline
	// expiries, and budget exhaustion answered by the anytime sampling tier.
	Sheds, Panics, Timeouts, Degraded int64
	// RatePerSec is lifetime completed requests over the recorder's uptime.
	RatePerSec float64
	Latency    LatencySummary
}

// Snapshot returns per-route statistics sorted by route label.
func (r *Recorder) Snapshot() []RouteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	uptime := time.Since(r.start).Seconds()
	out := make([]RouteStats, 0, len(r.routes))
	for route, rec := range r.routes {
		rs := RouteStats{
			Route:    route,
			Count:    rec.count,
			Errors:   rec.errors,
			Sheds:    rec.sheds,
			Panics:   rec.panics,
			Timeouts: rec.timeout,
			Degraded: rec.degraded,
			Latency:  SummarizeLatency(rec.samples),
		}
		if uptime > 0 {
			rs.RatePerSec = float64(rec.count) / uptime
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// Uptime returns how long the recorder has been alive.
func (r *Recorder) Uptime() time.Duration { return time.Since(r.start) }

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
