// Package servebench is the explanation service's load generator: it drives
// a server (an in-process one it starts itself, or an externally started
// shapleyd via TargetURL) over real HTTP with a configurable explain:update
// mix at several concurrency levels, records client-side latency
// percentiles and throughput, runs the pooled vs open-per-request
// head-to-head, and cross-checks quiesced served values big.Rat-identically
// against a cold repro.Explain. The server-side counters come from the
// server's GET /metrics.
package servebench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/flights"
	"repro/internal/metrics"
	"repro/internal/promlint"
	"repro/internal/server"
	"repro/internal/wire"
)

// Options configures a load-generation run.
type Options struct {
	// TargetURL drives an already-running server (e.g. a shapleyd started
	// by CI) instead of an in-process one. The target must serve a freshly
	// built copy of Dataset, since the value cross-check compares against a
	// locally built reference database. Empty starts an in-process server.
	TargetURL string
	// Dataset names the served database; only "flights" is built in (the
	// paper's running example — small enough that request overhead, not
	// pipeline cost, dominates, which is what a serving benchmark wants).
	Dataset string
	// Query is the UCQ text explained throughout; defaults to the flights
	// Figure 1 query.
	Query string
	// Clients lists the concurrency levels (default 1, 4, 16).
	Clients []int
	// Requests is the number of explain requests per client per phase
	// (default 8).
	Requests int
	// UpdateEvery issues one update request per that many explains in the
	// mixed phase (default 4; ≤ 0 disables the mixed phase).
	UpdateEvery int
	// PoolSize bounds the in-process server's session pool.
	PoolSize int
	// Repro configures the in-process server's sessions and the cold
	// reference computation.
	Repro repro.Options
	// BudgetMs, when positive, adds a budgeted phase per concurrency level:
	// explains carrying budget_ms, recording the exact/approximate mix and
	// the fallback latency. Budgeted responses may be approximate as long as
	// they are marked; unmarked degradation still fails the run.
	BudgetMs float64
	// AllowApprox permits marked approximate answers in the quiesced value
	// cross-check (for driving a deliberately starved server, where even
	// unbudgeted requests degrade). Exact answers are still checked
	// big.Rat-identically.
	AllowApprox bool
}

func (o Options) withDefaults() Options {
	if o.Dataset == "" {
		o.Dataset = "flights"
	}
	if o.Query == "" {
		o.Query = flights.Query().String()
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 4, 16}
	}
	if o.Requests <= 0 {
		o.Requests = 8
	}
	if o.UpdateEvery == 0 {
		o.UpdateEvery = 4
	}
	return o
}

// Level is one (mode, concurrency) measurement.
type Level struct {
	// Mode is "open-per-request", "pooled", "mixed-pooled", or
	// "budgeted-pooled".
	Mode    string `json:"mode"`
	Clients int    `json:"clients"`
	// Explains and Updates count completed requests across all clients.
	Explains int `json:"explains"`
	Updates  int `json:"updates,omitempty"`
	// ExactExplains and ApproxExplains split the budgeted phase's explains by
	// outcome: answered exactly within budget vs degraded to marked sampled
	// estimates.
	ExactExplains  int `json:"exact_explains,omitempty"`
	ApproxExplains int `json:"approx_explains,omitempty"`
	// FallbackLatency summarizes the latency of the degraded (approximate)
	// responses alone — the tail the anytime tier bounds.
	FallbackLatency *metrics.LatencySummary `json:"fallback_latency,omitempty"`
	// Retries counts requests of this phase answered 429/503 and retried
	// after backoff (shedding shows up here, not as silent errors).
	Retries int64 `json:"retries,omitempty"`
	// ElapsedMs is the phase wall clock; ThroughputRPS is requests
	// (explains + updates) over it.
	ElapsedMs     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency summarizes client-observed explain latencies.
	Latency metrics.LatencySummary `json:"latency"`
}

// HeadToHead compares the pooled and open-per-request explain phases at one
// concurrency level.
type HeadToHead struct {
	Clients           int     `json:"clients"`
	PooledP50Ms       float64 `json:"pooled_p50_ms"`
	UnpooledP50Ms     float64 `json:"unpooled_p50_ms"`
	P50Speedup        float64 `json:"p50_speedup"`
	PooledRPS         float64 `json:"pooled_rps"`
	UnpooledRPS       float64 `json:"unpooled_rps"`
	ThroughputSpeedup float64 `json:"throughput_speedup"`
}

// Report is the outcome of one Run.
type Report struct {
	Dataset string `json:"dataset"`
	Query   string `json:"query"`
	// Target is "in-process" or the external URL driven.
	Target     string       `json:"target"`
	Levels     []Level      `json:"levels"`
	HeadToHead []HeadToHead `json:"head_to_head"`
	// Pool and Cache are the server's final session-pool and value-cache
	// counters, read from its repro_pool_* and repro_compile_cache_* series
	// on /metrics.
	Pool  wire.PoolStats  `json:"pool"`
	Cache core.CacheStats `json:"cache"`
	// ValueChecks counts served explanations cross-checked
	// big.Rat-identical against a cold repro.Explain (the run fails on the
	// first mismatch).
	ValueChecks int `json:"value_checks"`
	// Retries is the run-wide total of 429/503 responses absorbed by the
	// client's backoff-and-retry loop.
	Retries int64 `json:"retries"`
	// Degraded is the sum over causes of the server's final
	// repro_degraded_total{route="/v1/explain"}: explains that exhausted
	// their budget and were answered with marked sampled estimates instead
	// of exact values. An explain whose tuples degraded for several causes
	// counts once per cause.
	Degraded int64 `json:"degraded,omitempty"`
}

// Retry policy for shed (429) and degraded/unavailable (503) responses:
// capped exponential backoff with jitter, honoring the server's Retry-After
// hint as a lower bound on the wait.
const (
	retryMax     = 8
	retryBase    = 50 * time.Millisecond
	retryCeiling = 2 * time.Second
)

// benchClient is the load generator's HTTP client: it retries overload
// responses with capped jittered backoff and counts every retry, so a
// shedding server slows the bench down measurably instead of failing it.
type benchClient struct {
	hc      *http.Client
	retries atomic.Int64
}

// do issues one request, retrying 429/503 up to retryMax times. Any other
// non-2xx status fails immediately.
func (c *benchClient) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return raw, nil
		}
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempt >= retryMax {
			return nil, fmt.Errorf("servebench: %s -> %d (after %d retries): %s",
				url, resp.StatusCode, attempt, strings.TrimSpace(string(raw)))
		}
		// Jittered wait in [backoff/2, 3·backoff/2), floored by the server's
		// Retry-After hint, capped at the ceiling.
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			if hint := time.Duration(ra) * time.Second; wait < hint {
				wait = hint
			}
		}
		if wait > retryCeiling {
			wait = retryCeiling
		}
		c.retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
		if backoff < retryCeiling {
			backoff *= 2
		}
	}
}

// Run executes the load generation and returns the report, failing on any
// non-2xx response or any served value not big.Rat-identical to the cold
// reference.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Dataset != "flights" {
		return nil, fmt.Errorf("servebench: unknown dataset %q (only flights is built in)", opts.Dataset)
	}

	base := opts.TargetURL
	target := base
	if base == "" {
		target = "in-process"
		d, _ := flights.Build()
		srv, err := server.New(server.Config{
			Datasets: map[string]*repro.Database{"flights": d},
			Options:  opts.Repro,
			PoolSize: opts.PoolSize,
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}
	client := &benchClient{hc: &http.Client{Timeout: 2 * time.Minute}}

	// Cold reference on a locally built equivalent database, keyed by fact
	// content (relation + tuple) so it is robust to server-side fact-ID
	// drift from earlier net-zero updates.
	ref, err := coldReference(ctx, opts)
	if err != nil {
		return nil, err
	}

	rep := &Report{Dataset: opts.Dataset, Query: opts.Query, Target: target}

	// Warm both paths once so every timed phase measures steady state (the
	// value cache is process-wide, so the open-per-request baseline is
	// cache-warm too — the head-to-head isolates grounding + session
	// reuse, which is exactly what the pool adds).
	for _, noPool := range []bool{true, false} {
		if _, _, err := postExplain(ctx, client, base, opts, noPool, 0); err != nil {
			return nil, err
		}
	}

	for _, c := range opts.Clients {
		unpooled, upLat, err := runExplainPhase(ctx, client, base, opts, "open-per-request", c, true)
		if err != nil {
			return nil, err
		}
		rep.Levels = append(rep.Levels, unpooled)
		pooled, poLat, err := runExplainPhase(ctx, client, base, opts, "pooled", c, false)
		if err != nil {
			return nil, err
		}
		rep.Levels = append(rep.Levels, pooled)
		h := HeadToHead{
			Clients:       c,
			PooledP50Ms:   metrics.SummarizeLatency(poLat).P50Ms,
			UnpooledP50Ms: metrics.SummarizeLatency(upLat).P50Ms,
			PooledRPS:     pooled.ThroughputRPS,
			UnpooledRPS:   unpooled.ThroughputRPS,
		}
		if h.PooledP50Ms > 0 {
			h.P50Speedup = h.UnpooledP50Ms / h.PooledP50Ms
		}
		if h.UnpooledRPS > 0 {
			h.ThroughputSpeedup = h.PooledRPS / h.UnpooledRPS
		}
		rep.HeadToHead = append(rep.HeadToHead, h)

		if opts.UpdateEvery > 0 {
			mixed, _, err := runMixedPhase(ctx, client, base, opts, c)
			if err != nil {
				return nil, err
			}
			rep.Levels = append(rep.Levels, mixed)
		}

		if opts.BudgetMs > 0 {
			budgeted, err := runBudgetedPhase(ctx, client, base, opts, ref, c)
			if err != nil {
				return nil, err
			}
			rep.Levels = append(rep.Levels, budgeted)
		}

		// Quiesced cross-check through both paths: the update traffic was
		// net-zero, so served values must match the cold reference.
		for _, noPool := range []bool{false, true} {
			resp, _, err := postExplain(ctx, client, base, opts, noPool, 0)
			if err != nil {
				return nil, err
			}
			if err := checkAgainstReference(ref, resp, opts.AllowApprox); err != nil {
				return nil, fmt.Errorf("servebench: %d clients, nopool=%v: %w", c, noPool, err)
			}
			rep.ValueChecks++
		}
	}

	// Final server-side counters: pool next to value cache.
	if err := readMetrics(ctx, client, base, rep); err != nil {
		return nil, err
	}
	rep.Retries = client.retries.Load()
	return rep, nil
}

// runExplainPhase fires clients×Requests explain requests and summarizes.
func runExplainPhase(ctx context.Context, client *benchClient, base string, opts Options, mode string, clients int, noPool bool) (Level, []time.Duration, error) {
	lats := make([][]time.Duration, clients)
	errs := make(chan error, clients)
	retries0 := client.retries.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < opts.Requests; r++ {
				_, d, err := postExplain(ctx, client, base, opts, noPool, 0)
				if err != nil {
					errs <- err
					return
				}
				lats[c] = append(lats[c], d)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return Level{}, nil, err
	}
	elapsed := time.Since(start)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	lv := Level{
		Mode:          mode,
		Clients:       clients,
		Explains:      len(all),
		Retries:       client.retries.Load() - retries0,
		ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
		ThroughputRPS: float64(len(all)) / elapsed.Seconds(),
		Latency:       metrics.SummarizeLatency(all),
	}
	return lv, all, nil
}

// runMixedPhase interleaves explains with net-zero update traffic: each
// client alternately inserts and deletes its own joining flight, so the
// pooled session catches up on its clients' concurrent writes.
func runMixedPhase(ctx context.Context, client *benchClient, base string, opts Options, clients int) (Level, []time.Duration, error) {
	usa := []string{"JFK", "EWR", "BOS", "LAX"}
	lats := make([][]time.Duration, clients)
	updates := make([]int, clients)
	errs := make(chan error, clients)
	retries0 := client.retries.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := usa[c%len(usa)]
			var pendingID int64
			cleanup := func() error {
				if pendingID == 0 {
					return nil
				}
				_, err := postUpdate(ctx, client, base, opts, wire.UpdateRequest{
					Dataset: opts.Dataset, Query: opts.Query,
					Deletes: []wire.DeleteSpec{{ID: pendingID}},
				})
				pendingID = 0
				return err
			}
			for r := 0; r < opts.Requests; r++ {
				if r%opts.UpdateEvery == opts.UpdateEvery-1 {
					if pendingID != 0 {
						if err := cleanup(); err != nil {
							errs <- err
							return
						}
					} else {
						resp, err := postUpdate(ctx, client, base, opts, wire.UpdateRequest{
							Dataset: opts.Dataset, Query: opts.Query,
							Inserts: []wire.InsertSpec{{
								Relation: "Flights", Endogenous: true,
								Values: []json.RawMessage{
									json.RawMessage(fmt.Sprintf("%q", src)),
									json.RawMessage(`"ORY"`),
								},
							}},
						})
						if err != nil {
							errs <- err
							return
						}
						pendingID = resp.InsertedIDs[0]
					}
					updates[c]++
					continue
				}
				_, d, err := postExplain(ctx, client, base, opts, false, 0)
				if err != nil {
					errs <- err
					return
				}
				lats[c] = append(lats[c], d)
			}
			if err := cleanup(); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return Level{}, nil, err
	}
	elapsed := time.Since(start)
	var all []time.Duration
	nup := 0
	for c := range lats {
		all = append(all, lats[c]...)
		nup += updates[c]
	}
	lv := Level{
		Mode:          "mixed-pooled",
		Clients:       clients,
		Explains:      len(all),
		Updates:       nup,
		Retries:       client.retries.Load() - retries0,
		ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
		ThroughputRPS: float64(len(all)+nup) / elapsed.Seconds(),
		Latency:       metrics.SummarizeLatency(all),
	}
	return lv, all, nil
}

// runBudgetedPhase fires explains carrying budget_ms through the pooled
// path, splitting the outcomes into exact-within-budget and degraded
// (marked approximate) and summarizing the degraded responses' latency
// separately. Every response is validated: an exact answer must match the
// cold reference, a degraded one must be marked with samples and finite
// ordered confidence bounds — an unmarked approximation fails the run.
func runBudgetedPhase(ctx context.Context, client *benchClient, base string, opts Options, ref map[string]string, clients int) (Level, error) {
	lats := make([][]time.Duration, clients)
	fallback := make([][]time.Duration, clients)
	exact := make([]int, clients)
	errs := make(chan error, clients)
	retries0 := client.retries.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < opts.Requests; r++ {
				resp, d, err := postExplain(ctx, client, base, opts, false, opts.BudgetMs)
				if err != nil {
					errs <- err
					return
				}
				if err := checkAgainstReference(ref, resp, true); err != nil {
					errs <- fmt.Errorf("budgeted response: %w", err)
					return
				}
				lats[c] = append(lats[c], d)
				if approximate(resp) {
					fallback[c] = append(fallback[c], d)
				} else {
					exact[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return Level{}, err
	}
	elapsed := time.Since(start)
	var all, fb []time.Duration
	nexact := 0
	for c := range lats {
		all = append(all, lats[c]...)
		fb = append(fb, fallback[c]...)
		nexact += exact[c]
	}
	lv := Level{
		Mode:           "budgeted-pooled",
		Clients:        clients,
		Explains:       len(all),
		ExactExplains:  nexact,
		ApproxExplains: len(fb),
		Retries:        client.retries.Load() - retries0,
		ElapsedMs:      float64(elapsed) / float64(time.Millisecond),
		ThroughputRPS:  float64(len(all)) / elapsed.Seconds(),
		Latency:        metrics.SummarizeLatency(all),
	}
	if len(fb) > 0 {
		s := metrics.SummarizeLatency(fb)
		lv.FallbackLatency = &s
	}
	return lv, nil
}

// approximate reports whether any tuple of the response degraded to sampled
// estimates.
func approximate(resp *wire.ExplainResponse) bool {
	for _, tup := range resp.Tuples {
		if tup.Approximate {
			return true
		}
	}
	return false
}

func postExplain(ctx context.Context, client *benchClient, base string, opts Options, noPool bool, budgetMs float64) (*wire.ExplainResponse, time.Duration, error) {
	body, err := json.Marshal(wire.ExplainRequest{Dataset: opts.Dataset, Query: opts.Query, NoPool: noPool, BudgetMs: budgetMs})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	raw, err := client.do(ctx, http.MethodPost, base+"/v1/explain", body)
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	var resp wire.ExplainResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, d, fmt.Errorf("servebench: bad explain response: %w", err)
	}
	return &resp, d, nil
}

func postUpdate(ctx context.Context, client *benchClient, base string, opts Options, req wire.UpdateRequest) (*wire.UpdateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	raw, err := client.do(ctx, http.MethodPost, base+"/v1/update", body)
	if err != nil {
		return nil, err
	}
	var resp wire.UpdateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("servebench: bad update response: %w", err)
	}
	return &resp, nil
}

// readMetrics scrapes the server's /metrics into the report's Pool, Cache
// and Degraded. A series it reads that the exposition lacks fails the run,
// so a renamed series cannot silently zero the report.
func readMetrics(ctx context.Context, client *benchClient, base string, rep *Report) error {
	raw, err := client.do(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	samples, stats, err := promlint.Parse(string(raw))
	if err != nil {
		return fmt.Errorf("servebench: %s/metrics: %w", base, err)
	}
	var missing []string
	get := func(req string) int64 {
		v, err := promlint.Sum(samples, req)
		if err != nil {
			missing = append(missing, req)
		}
		return int64(v)
	}
	rep.Pool = wire.PoolStats{
		Opens:     get("repro_pool_opens_total"),
		Reuses:    get("repro_pool_reuses_total"),
		Evictions: get("repro_pool_evictions_total"),
		Sessions:  int(get("repro_pool_sessions")),
		Capacity:  int(get("repro_pool_capacity")),
	}
	rep.Cache = core.CacheStats{
		IdenticalHits: get(`repro_compile_cache_hits_total{kind="identical"}`),
		RenamedHits:   get(`repro_compile_cache_hits_total{kind="renamed"}`),
		Misses:        get("repro_compile_cache_misses_total"),
		Evictions:     get("repro_compile_cache_evictions_total"),
		Invalidations: get("repro_compile_cache_invalidations_total"),
		Len:           int(get("repro_compile_cache_entries")),
		Capacity:      int(get("repro_compile_cache_capacity")),
	}
	rep.Cache.Hits = rep.Cache.IdenticalHits + rep.Cache.RenamedHits
	// A cause's series appears with its first degraded explain, so only the
	// family must be declared; no series means none degraded.
	if stats.Types["repro_degraded_total"] != "counter" {
		missing = append(missing, "repro_degraded_total")
	} else if v, err := promlint.Sum(samples, `repro_degraded_total{route="/v1/explain"}`); err == nil {
		rep.Degraded = int64(v)
	}
	if len(missing) > 0 {
		return fmt.Errorf("servebench: %s/metrics lacks %s", base, strings.Join(missing, ", "))
	}
	return nil
}

// coldReference computes the ground truth the served values are checked
// against: a cold repro.Explain on a freshly built dataset, keyed by fact
// content. Any configured budget is stripped — the reference is exact even
// when the driven server is deliberately starved.
func coldReference(ctx context.Context, opts Options) (map[string]string, error) {
	d, _ := flights.Build()
	q, err := repro.ParseQuery(opts.Query)
	if err != nil {
		return nil, err
	}
	ropts := opts.Repro
	ropts.Budget = repro.ExplainBudget{}
	es, err := repro.Explain(ctx, d, q, ropts)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]string)
	for i := range es {
		for id, v := range es[i].Values {
			f := d.Fact(id)
			if f == nil {
				return nil, fmt.Errorf("servebench: reference fact %d missing", id)
			}
			ref[contentKey(f.Relation, wire.EncodeTuple(f.Tuple))] = v.RatString()
		}
	}
	return ref, nil
}

// contentKey renders a fact's identity independently of fact IDs and of
// which side (encoder or JSON decoder) produced the tuple values.
func contentKey(relation string, tuple []any) string {
	parts := make([]string, len(tuple))
	for i, v := range tuple {
		parts[i] = fmt.Sprint(v)
	}
	return relation + "(" + strings.Join(parts, ",") + ")"
}

// checkAgainstReference verifies every served exact fact value is
// big.Rat-identical (by exact rational string) to the cold reference. With
// allowApprox, a tuple may instead be a marked approximation — then it must
// carry a positive sample count and every fact must have finite, ordered
// confidence bounds containing its score (unmarked approximations, or any
// other non-exact method, always fail).
func checkAgainstReference(ref map[string]string, resp *wire.ExplainResponse, allowApprox bool) error {
	seen := 0
	for _, tup := range resp.Tuples {
		if tup.Approximate {
			if !allowApprox {
				return fmt.Errorf("served method %q where exact was required", tup.Method)
			}
			if tup.Method != "approximate" {
				return fmt.Errorf("tuple marked approximate but method is %q", tup.Method)
			}
			if tup.Samples <= 0 {
				return fmt.Errorf("approximate tuple reports %d samples", tup.Samples)
			}
			for _, f := range tup.Facts {
				key := contentKey(f.Relation, f.Tuple)
				if _, ok := ref[key]; !ok {
					return fmt.Errorf("served fact %s not in the cold reference", key)
				}
				if f.CILow == nil || f.CIHigh == nil {
					return fmt.Errorf("approximate fact %s missing confidence bounds", key)
				}
				lo, hi := *f.CILow, *f.CIHigh
				if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
					return fmt.Errorf("approximate fact %s has non-finite bounds [%v, %v]", key, lo, hi)
				}
				if lo > hi || f.Score < lo || f.Score > hi {
					return fmt.Errorf("approximate fact %s score %v outside its CI [%v, %v]", key, f.Score, lo, hi)
				}
				seen++
			}
			continue
		}
		if tup.Method != "exact" {
			return fmt.Errorf("served method %q, want exact", tup.Method)
		}
		for _, f := range tup.Facts {
			key := contentKey(f.Relation, f.Tuple)
			want, ok := ref[key]
			if !ok {
				return fmt.Errorf("served fact %s not in the cold reference", key)
			}
			if f.ValueRat != want {
				return fmt.Errorf("served %s = %s, cold reference %s (not big.Rat-identical)", key, f.ValueRat, want)
			}
			seen++
		}
	}
	if seen != len(ref) {
		return fmt.Errorf("served %d facts, cold reference has %d", seen, len(ref))
	}
	return nil
}
