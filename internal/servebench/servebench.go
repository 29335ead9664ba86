// Package servebench is the serve smokes' correctness gate. It drives a
// running shapleyd that serves the flights dataset over real HTTP: explains
// at each concurrency level, a net-zero explain:update mix and an optional
// budgeted phase. It fails on any non-2xx response (429 and 503 are retried
// with backoff first), on a budgeted answer that is neither exact nor marked
// with finite ordered confidence bounds, on a quiesced value that is not
// big.Rat-identical to a cold repro.Explain, and on a /metrics series it
// reads that the server does not export.
package servebench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/flights"
	"repro/internal/promlint"
	"repro/internal/wire"
)

// dataset is the database every request addresses, and flights.Query the
// query it explains: the paper's running example, which a locally built copy
// reproduces exactly.
const dataset = "flights"

// Options configures a gate run.
type Options struct {
	// TargetURL is the base URL of the server to drive. It must serve a
	// freshly built flights dataset (or one whose update traffic was
	// net-zero), since the value cross-check compares against a locally
	// built reference database.
	TargetURL string
	// Clients lists the concurrency levels (default 1, 4, 16).
	Clients []int
	// Requests is the number of requests per client per phase (default 8).
	Requests int
	// UpdateEvery issues one update request per that many requests in the
	// mixed phase (default 4; negative disables the mixed phase).
	UpdateEvery int
	// BudgetMs, when positive, adds a budgeted phase per concurrency level:
	// explains carrying budget_ms, each of which must be exact or a marked
	// approximation.
	BudgetMs float64
	// AllowApprox permits marked approximate answers in the quiesced value
	// cross-check (for driving a deliberately starved server, where even
	// unbudgeted requests degrade). Exact answers are still checked
	// big.Rat-identically.
	AllowApprox bool
}

func (o Options) withDefaults() Options {
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

// Report counts what a passing run checked.
type Report struct {
	// Explains and Updates count the completed requests of every phase.
	Explains, Updates int64
	// Exact and Approx split the budgeted phase's explains into answers
	// exact within budget and marked approximations.
	Exact, Approx int64
	// ValueChecks counts the quiesced responses cross-checked against the
	// cold reference, one per concurrency level.
	ValueChecks int
	// Retries counts the 429/503 responses retried after backoff.
	Retries int64
	// Pool and Cache are the server's final session-pool and value-cache
	// counters, read from its repro_pool_* and repro_compile_cache_* series
	// on /metrics.
	Pool  wire.PoolStats
	Cache core.CacheStats
	// Degraded is the sum over causes of the server's final
	// repro_degraded_total{route="/v1/explain"}: explains that exhausted
	// their budget and were answered with marked sampled estimates. An
	// explain whose tuples degraded for several causes counts once per cause.
	Degraded int64
}

// Retry policy for shed (429) and degraded/unavailable (503) responses:
// capped exponential backoff with jitter, honoring the server's Retry-After
// hint as a lower bound on the wait.
const (
	retryMax     = 8
	retryBase    = 50 * time.Millisecond
	retryCeiling = 2 * time.Second
)

// client is the gate's HTTP client: it retries overload responses with
// capped jittered backoff and counts every retry, so a shedding server slows
// the run down instead of failing it.
type client struct {
	hc      *http.Client
	base    string
	retries atomic.Int64
}

// do issues one request, retrying 429/503 up to retryMax times. Any other
// non-2xx status fails immediately.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	url := c.base + path
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

// post sends req as the JSON body of a POST to path and decodes the answer
// into resp.
func (c *client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	raw, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("servebench: bad %s response: %w", path, err)
	}
	return nil
}

// gate is one run's state: the client, the cold reference and the request
// counts the phases' clients add to concurrently.
type gate struct {
	opts  Options
	c     *client
	query string
	// ref maps each fact, by content, to its exact value in the cold
	// reference.
	ref                              map[string]string
	explains, updates, exact, approx atomic.Int64
}

// Run drives the server at opts.TargetURL through every phase and returns
// what it checked, failing on the first violation.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.TargetURL == "" {
		return nil, errors.New("servebench: no target URL")
	}
	g := &gate{
		opts:  opts,
		c:     &client{hc: &http.Client{Timeout: 2 * time.Minute}, base: opts.TargetURL},
		query: flights.Query().String(),
	}
	var err error
	if g.ref, err = coldReference(ctx); err != nil {
		return nil, err
	}

	rep := &Report{}
	for _, n := range opts.Clients {
		if err := forClients(n, func(int) error { return g.explainPhase(ctx) }); err != nil {
			return nil, err
		}
		if opts.UpdateEvery > 0 {
			if err := forClients(n, func(c int) error { return g.mixedPhase(ctx, c) }); err != nil {
				return nil, err
			}
		}
		if opts.BudgetMs > 0 {
			if err := forClients(n, func(int) error { return g.budgetedPhase(ctx) }); err != nil {
				return nil, err
			}
		}
		// Quiesced cross-check: the update traffic was net-zero, so served
		// values must match the cold reference.
		resp, err := g.explain(ctx, 0)
		if err != nil {
			return nil, err
		}
		if err := checkAgainstReference(g.ref, resp, opts.AllowApprox); err != nil {
			return nil, fmt.Errorf("servebench: %d clients: %w", n, err)
		}
		rep.ValueChecks++
	}

	if err := readMetrics(ctx, g.c, rep); err != nil {
		return nil, err
	}
	rep.Explains, rep.Updates = g.explains.Load(), g.updates.Load()
	rep.Exact, rep.Approx = g.exact.Load(), g.approx.Load()
	rep.Retries = g.c.retries.Load()
	return rep, nil
}

// forClients runs phase once per client, concurrently, and returns the
// first error.
func forClients(clients int, phase func(c int) error) error {
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := phase(c); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// explainPhase is one client's unbudgeted explains.
func (g *gate) explainPhase(ctx context.Context) error {
	for r := 0; r < g.opts.Requests; r++ {
		if _, err := g.explain(ctx, 0); err != nil {
			return err
		}
	}
	return nil
}

// mixedPhase interleaves one client's explains with net-zero update traffic:
// the client alternately inserts and deletes its own joining flight, so the
// pooled session catches up on its clients' concurrent writes.
func (g *gate) mixedPhase(ctx context.Context, c int) error {
	src := []string{"JFK", "EWR", "BOS", "LAX"}[c%4]
	var pending int64 // the client's inserted flight, 0 when none
	var err error
	for r := 0; r < g.opts.Requests; r++ {
		if r%g.opts.UpdateEvery == g.opts.UpdateEvery-1 {
			pending, err = g.toggleFlight(ctx, src, pending)
		} else {
			_, err = g.explain(ctx, 0)
		}
		if err != nil {
			return err
		}
	}
	if pending != 0 {
		_, err = g.toggleFlight(ctx, src, pending)
	}
	return err
}

// toggleFlight deletes fact pending, or inserts a flight from src to ORY
// when pending is 0, and returns the ID of the flight now inserted, 0 after
// a delete.
func (g *gate) toggleFlight(ctx context.Context, src string, pending int64) (int64, error) {
	req := wire.UpdateRequest{Dataset: dataset, Query: g.query}
	if pending != 0 {
		req.Deletes = []wire.DeleteSpec{{ID: pending}}
	} else {
		req.Inserts = []wire.InsertSpec{{
			Relation: "Flights", Endogenous: true,
			Values: []json.RawMessage{json.RawMessage(strconv.Quote(src)), json.RawMessage(`"ORY"`)},
		}}
	}
	var resp wire.UpdateResponse
	if err := g.c.post(ctx, "/v1/update", req, &resp); err != nil {
		return 0, err
	}
	g.updates.Add(1)
	if pending != 0 {
		return 0, nil
	}
	if len(resp.InsertedIDs) != 1 {
		return 0, fmt.Errorf("servebench: one insert answered with IDs %v", resp.InsertedIDs)
	}
	return resp.InsertedIDs[0], nil
}

// budgetedPhase is one client's explains carrying budget_ms. Every response
// is validated: an exact answer must match the cold reference, a degraded
// one must be marked with samples and finite ordered confidence bounds — an
// unmarked approximation fails the run.
func (g *gate) budgetedPhase(ctx context.Context) error {
	for r := 0; r < g.opts.Requests; r++ {
		resp, err := g.explain(ctx, g.opts.BudgetMs)
		if err != nil {
			return err
		}
		if err := checkAgainstReference(g.ref, resp, true); err != nil {
			return fmt.Errorf("servebench: budgeted response: %w", err)
		}
		if approximate(resp) {
			g.approx.Add(1)
		} else {
			g.exact.Add(1)
		}
	}
	return nil
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

// explain asks the server to explain the query, under budgetMs when it is
// positive.
func (g *gate) explain(ctx context.Context, budgetMs float64) (*wire.ExplainResponse, error) {
	var resp wire.ExplainResponse
	req := wire.ExplainRequest{Dataset: dataset, Query: g.query, BudgetMs: budgetMs}
	if err := g.c.post(ctx, "/v1/explain", req, &resp); err != nil {
		return nil, err
	}
	g.explains.Add(1)
	return &resp, nil
}

// readMetrics scrapes the server's /metrics into the report's Pool, Cache
// and Degraded. A series it reads that the exposition lacks fails the run,
// so a renamed series cannot silently zero the report.
func readMetrics(ctx context.Context, c *client, rep *Report) error {
	raw, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	samples, stats, err := promlint.Parse(string(raw))
	if err != nil {
		return fmt.Errorf("servebench: %s/metrics: %w", c.base, err)
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
		return fmt.Errorf("servebench: %s/metrics lacks %s", c.base, strings.Join(missing, ", "))
	}
	return nil
}

// coldReference computes the ground truth the served values are checked
// against: a cold, unbudgeted repro.Explain on a freshly built dataset,
// keyed by fact content so that it is robust to server-side fact-ID drift
// from earlier net-zero updates.
func coldReference(ctx context.Context) (map[string]string, error) {
	d, _ := flights.Build()
	es, err := repro.Explain(ctx, d, flights.Query(), repro.Options{})
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
