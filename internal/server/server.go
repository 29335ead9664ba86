// Package server is the explanation service: an HTTP front end over
// repro.Session for the paper's interactive workload at serving scale. Where
// cmd/shapley answers one question per process, the server keeps a keyed
// pool of warm sessions — one per (database, query) — so sustained traffic
// from many concurrent clients hits the incremental-maintenance and value
// caches end to end. Updates apply straight to the database, and every
// pooled session catches up from its mutation feed at its next explain.
//
// The wire API (JSON bodies, see internal/wire):
//
//	POST /v1/explain     — explain every output tuple of a query
//	POST /v1/update      — apply a batch of fact insertions/deletions
//	GET  /metrics        — Prometheus text exposition of every request,
//	                       stage, pool, compilation-cache, compiler, and
//	                       dataset counter
//	GET  /v1/debug/slow  — recent slow explains with their stage traces
//	GET  /healthz        — liveness
//
// A warm pooled explain is mostly a lookup: a raw query text that is a
// pooled session's normalized text finds it without parsing, and each tuple's
// response bytes are kept with the session's cached explanation, so only
// tuples computed or asked at another top since are rendered — under the
// dataset read lock the explain held, from the state it was computed on.
// The body splices those bytes into a freshly written header and footer;
// repro_explain_renders_total{cache} counts kept and rendered tuples.
//
// Explain requests may carry a per-request compute budget: "budget_ms"
// bounds the exact pipeline's wall clock, "mode" picks the degradation
// policy ("auto", "exact", or "approximate"), and "min_samples"/"seed"
// steer the sampling fallback. A budgeted request that exhausts its budget
// still answers 200: each degraded tuple is marked "approximate": true with
// "samples" and per-fact "ci_low"/"ci_high" 95% confidence bounds instead
// of exact rationals, and /metrics counts the request under
// repro_degraded_total{route="/v1/explain",cause} once per distinct cause
// among its tuples. Unbudgeted requests are byte-identical to the
// pre-budget wire format. Degraded pooled answers are upgraded to exact in
// the background, so subsequent explains of the same key serve exact
// values.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Datasets are the served databases, by the name explain/update
	// requests address them with.
	Datasets map[string]*repro.Database
	// Options configures every session the pool opens.
	Options repro.Options
	// PoolSize bounds the session pool (≤ 0 = DefaultPoolSize). The least
	// recently used session is closed when a new (dataset, query) pair
	// would exceed it.
	PoolSize int
	// RequestTimeout bounds each explain/update request's wall clock: the
	// request context expires at the deadline, the compile/Shapley pipeline
	// aborts at its next cancellation point, and the client gets a 504.
	// Zero means no per-request deadline.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing requests per work route
	// (/v1/explain and /v1/update each get their own bound; /metrics,
	// /v1/debug/slow, and /healthz stay admission-free so the
	// service remains observable under overload). Excess requests are shed
	// immediately with 429 and a Retry-After header rather than queueing.
	// Zero means unbounded.
	MaxInFlight int
	// Logger receives the server's structured request logs (error responses
	// and slow explains, each tagged with its request ID). Nil uses
	// slog.Default().
	Logger *slog.Logger
	// SlowThreshold is the wall-clock bound past which an explain request is
	// recorded in the slow-explain ring (GET /v1/debug/slow) with its full
	// stage trace, and logged. Zero disables the slow log.
	SlowThreshold time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/, restricted to
	// loopback clients.
	EnablePprof bool
}

// Server serves the explanation API over a session pool.
type Server struct {
	cfg    Config
	pool   *Pool
	locks  map[string]*sync.RWMutex
	rec    *metrics.Recorder
	mux    *http.ServeMux
	logger *slog.Logger
	slow   *slowLog
	// idBase + idSeq mint the per-request IDs (see observe.go).
	idBase string
	idSeq  atomic.Uint64
	// admit holds the per-route admission semaphores (nil when MaxInFlight
	// is unbounded): a slot must be acquired before the handler runs.
	admit map[string]chan struct{}
	// renderHits and renderMisses count explained tuples by whether their
	// response bytes were kept from an earlier request or rendered for this
	// one (repro_explain_renders_total{cache}).
	renderHits, renderMisses atomic.Int64

	// testHookRendered, when set, runs after a pooled explain's tuples are
	// rendered, still under the dataset's read lock, with the explanations
	// and top they were rendered from. Tests render them afresh there.
	testHookRendered func(d *repro.Database, es []repro.TupleExplanation, top int)
}

// New validates the configuration and returns a server ready to serve.
func New(cfg Config) (*Server, error) {
	if len(cfg.Datasets) == 0 {
		return nil, errors.New("server: no datasets configured")
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		locks:  make(map[string]*sync.RWMutex, len(cfg.Datasets)),
		rec:    metrics.NewRecorder(),
		mux:    http.NewServeMux(),
		logger: cfg.Logger,
		slow:   newSlowLog(slowLogSize),
		idBase: newIDBase(),
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	for name := range cfg.Datasets {
		s.locks[name] = new(sync.RWMutex)
	}
	s.pool = NewPool(cfg.PoolSize, s.openSession, func(dataset string) *sync.RWMutex {
		return s.locks[dataset]
	})
	if cfg.MaxInFlight > 0 {
		s.admit = map[string]chan struct{}{
			"/v1/explain": make(chan struct{}, cfg.MaxInFlight),
			"/v1/update":  make(chan struct{}, cfg.MaxInFlight),
		}
	}
	s.mux.HandleFunc("/v1/explain", s.instrument("/v1/explain", s.guard("/v1/explain", s.handleExplain)))
	s.mux.HandleFunc("/v1/update", s.instrument("/v1/update", s.guard("/v1/update", s.handleUpdate)))
	s.mux.HandleFunc("/v1/debug/slow", s.instrument("/v1/debug/slow", s.handleSlow))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.EnablePprof {
		s.registerPprof()
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close flushes the session pool (in-flight requests finish on their
// sessions, which close on release).
func (s *Server) Close() { s.pool.Close() }

// openSession opens a pooled session under the context of the request that
// missed the pool, so its grounding lands in that request's trace.
func (s *Server) openSession(ctx context.Context, key Key) (*repro.Session, error) {
	d := s.cfg.Datasets[key.Dataset]
	if d == nil {
		return nil, fmt.Errorf("server: unknown dataset %q", key.Dataset)
	}
	q, err := repro.ParseQuery(key.Query)
	if err != nil {
		return nil, err
	}
	return repro.OpenContext(ctx, d, q, s.cfg.Options)
}

// resolve maps a request's dataset name to its database and lock.
func (s *Server) resolve(dataset string) (*repro.Database, *sync.RWMutex, error) {
	d := s.cfg.Datasets[dataset]
	if d == nil {
		return nil, nil, fmt.Errorf("server: unknown dataset %q", dataset)
	}
	return d, s.locks[dataset], nil
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request recorder feeding /metrics.
// It assigns the request its ID (returned as X-Request-Id and
// carried in the context for handlers to echo and log), and classifies
// degradation outcomes by status: only admission control writes 429 and
// only the deadline middleware produces 504, so those statuses are the shed
// and timeout counters (panics are ambiguous with plain 500s and are
// counted where they are recovered). Error responses are logged with the
// request ID.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.nextRequestID()
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		switch rec.status {
		case http.StatusTooManyRequests:
			s.rec.Shed(route)
		case http.StatusGatewayTimeout:
			s.rec.TimedOut(route)
		}
		s.rec.Observe(route, rec.status, d)
		if rec.status >= 400 {
			s.logger.Warn("request failed",
				"request_id", id, "route", route, "status", rec.status,
				"elapsed_ms", float64(d)/float64(time.Millisecond))
		}
	}
}

// guard is the resilience middleware on the work routes, inside instrument
// (so shed and panicked requests are still observed) and outside the
// handler. In order: admission control sheds excess concurrency with 429 +
// Retry-After before any work starts; the per-request deadline arms the
// context the compile/Shapley pipeline already honors; panic recovery turns
// a handler panic into a 500 instead of a killed connection — the session
// pool's refcounts release on the way out (deferred in Pool.Explain),
// so a panicked request never wedges a pooled session.
func (s *Server) guard(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sem := s.admit[route]; sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("server: %s over capacity (%d in flight)", route, cap(sem)))
				return
			}
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		defer func() {
			if v := recover(); v != nil {
				s.rec.Panicked(route)
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("server: handler panicked: %v", v))
			}
		}()
		h(w, r)
	}
}

// maxBodyBytes bounds request bodies; update batches are the largest
// legitimate payloads and stay far below this.
const maxBodyBytes = 8 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// writeJSON writes the small bodies (updates, errors, the slow log);
// explain bodies come from wire.AppendExplainResponse.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// retryAfterSeconds is the backoff hint sent with every shed (429) and
// degraded/overloaded (503) response.
const retryAfterSeconds = 1

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errStatus maps an error to its HTTP status: the mutation layer's
// sentinel errors (wrapped by every client-addressable failure, including
// through repro.MutationError) are 400s; a dataset in storage-degraded
// mode is a 503 (retryable once an operator repairs the store); a request
// cut off by the per-request deadline is a 504; everything else is a 500.
// Query parse errors and unknown datasets are rejected with explicit 400s
// at the handlers before any session work starts.
func errStatus(err error) int {
	switch {
	case errors.Is(err, repro.ErrUnknownRelation) ||
		errors.Is(err, repro.ErrNoFact) ||
		errors.Is(err, repro.ErrArity):
		return http.StatusBadRequest
	case errors.Is(err, repro.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	return true
}

// requestBudget overlays an explain request's budget knobs onto the server's
// configured budget: budget_ms sets the exact attempt's deadline, mode the
// degradation policy, min_samples the sampling floor, seed the sampling seed
// perturbation. Absent knobs keep the configured values, so an unbudgeted
// request on an unbudgeted server yields the zero (disabled) budget. A
// positive budget_ms arms a deadline of at least 1ns, and one whose
// nanoseconds overflow a time.Duration is rejected.
func (s *Server) requestBudget(req wire.ExplainRequest) (repro.ExplainBudget, error) {
	b := s.cfg.Options.Budget
	if req.BudgetMs < 0 {
		return b, fmt.Errorf("server: negative budget_ms %v", req.BudgetMs)
	}
	if req.MinSamples < 0 {
		return b, fmt.Errorf("server: negative min_samples %d", req.MinSamples)
	}
	if req.BudgetMs > 0 {
		ns := req.BudgetMs * float64(time.Millisecond)
		// float64(math.MaxInt64) rounds up to 2^63, the first value that
		// does not fit.
		if !(ns < float64(math.MaxInt64)) {
			return b, fmt.Errorf("server: budget_ms %v exceeds the longest deadline (%v)", req.BudgetMs, time.Duration(math.MaxInt64))
		}
		b.Deadline = max(time.Duration(ns), time.Nanosecond)
	}
	if req.MinSamples > 0 {
		b.MinSamples = req.MinSamples
	}
	if req.Seed != 0 {
		b.Seed = req.Seed
	}
	if req.Mode != "" {
		mode, err := repro.ParseExplainMode(req.Mode)
		if err != nil {
			return b, err
		}
		b.Mode = mode
	}
	return b, nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req wire.ExplainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	d, _, err := s.resolve(req.Dataset)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A query text that keys a pooled session is that session's normalized
	// text and needs no parse. Any other text is parsed here, so a malformed
	// query is a 400 and never keys a session.
	key, known := s.pool.Lookup(req.Dataset, req.Query)
	if !known {
		q, err := repro.ParseQuery(req.Query)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		key = Key{Dataset: req.Dataset, Query: q.String()}
	}
	budget, err := s.requestBudget(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Every explain runs under a collecting trace root: span Ends feed the
	// per-stage latency histograms, the tree is returned when the request
	// asked for it, and slow requests retain it in the slow-explain ring.
	// The root's duration is the reported request latency, and the tree's
	// stage durations sum (within scheduling slack) to elapsed_ms, except
	// for rendering the tuples no earlier request rendered: that runs under
	// the dataset's read lock their explain held, inside the root but in no
	// stage span.
	rctx, root := trace.NewRoot(r.Context(), "explain", s.rec.ObserveStage)
	body := bodyPool.Get().(*explainBody)
	defer body.release()
	es, err := s.pool.Explain(rctx, key, budget, func(es []repro.TupleExplanation) error {
		err := body.renderKept(d, es, req.Top)
		if err == nil && s.testHookRendered != nil {
			s.testHookRendered(d, es, req.Top)
		}
		return err
	})
	s.renderHits.Add(body.hits)
	s.renderMisses.Add(body.misses)
	if err != nil {
		root.End()
		writeError(w, errStatus(err), err)
		return
	}
	// Each distinct cause among the tuples ticks the labeled cause counter
	// once.
	causes := make(map[string]bool)
	for _, e := range es {
		if e.Method == repro.MethodApprox {
			cause := e.DegradedCause
			if cause == "" {
				cause = "unknown"
			}
			causes[cause] = true
		}
	}
	for cause := range causes {
		s.rec.DegradedCause("/v1/explain", cause)
	}
	root.End()
	elapsed := root.Duration()

	resp := wire.ExplainResponse{
		Dataset:   req.Dataset,
		Query:     key.Query,
		Pooled:    true,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
		RequestID: requestID(r),
	}
	if req.Trace {
		resp.Trace = root.Snapshot()
	}
	if s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold {
		s.slow.add(wire.SlowEntry{
			RequestID: resp.RequestID,
			Dataset:   req.Dataset,
			Query:     key.Query,
			Time:      time.Now().UTC().Format(time.RFC3339Nano),
			ElapsedMs: resp.ElapsedMs,
			Trace:     root.Snapshot(),
		})
		s.logger.Warn("slow explain",
			"request_id", resp.RequestID, "dataset", req.Dataset, "query", key.Query,
			"elapsed_ms", resp.ElapsedMs, "tuples", len(es))
	}

	writeExplain(w, &resp, body)
}

// explainBody is one explain response in the making: the bytes of its
// tuples, rendered or kept under the dataset's read lock, and then the body
// spliced from them. Bodies are recycled across requests through bodyPool.
type explainBody struct {
	tuples [][]byte // each tuple's bytes
	buf    []byte   // the body
	// hits and misses count the tuples whose bytes were kept from an
	// earlier request and those rendered for this one.
	hits, misses int64
}

var bodyPool = sync.Pool{New: func() any { return new(explainBody) }}

// maxPooledBody bounds, in bytes, each buffer of a body put back in
// bodyPool.
const maxPooledBody = 1 << 20

// renderKept renders explanations at top through their memos: a pooled
// session's tuple rendered at the same top by an earlier request reuses the
// bytes kept then, and an explanation with no memo is rendered afresh.
// Callers hold d's read lock since the explain.
func (b *explainBody) renderKept(d *repro.Database, es []repro.TupleExplanation, top int) error {
	render := func(dst []byte, e *repro.TupleExplanation, top int) ([]byte, error) {
		return wire.AppendExplanation(dst, d, e, top)
	}
	for i := range es {
		t, hit, err := es[i].Rendering(top, render)
		if err != nil {
			return err
		}
		if hit {
			b.hits++
		} else {
			b.misses++
		}
		b.tuples = append(b.tuples, t)
	}
	return nil
}

// release puts b back in bodyPool, holding no kept rendering, unless a
// buffer grew past maxPooledBody (a top-0 answer on a big query), in which
// case b is dropped rather than pinned in the pool.
func (b *explainBody) release() {
	clear(b.tuples)
	// A slice header takes 24 bytes.
	if cap(b.buf) > maxPooledBody || cap(b.tuples) > maxPooledBody/24 {
		return
	}
	*b = explainBody{tuples: b.tuples[:0], buf: b.buf[:0]}
	bodyPool.Put(b)
}

// writeExplain splices the explain body from resp and the tuples b holds,
// and sends it in one write with its Content-Length. It reads no database,
// so it takes no lock. A body that cannot be written (a trace attribute
// JSON cannot carry) is a 500, answered before any other header is written.
func writeExplain(w http.ResponseWriter, resp *wire.ExplainResponse, b *explainBody) {
	var err error
	if b.buf, err = wire.AppendRenderedResponse(b.buf[:0], resp, b.tuples); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b.buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.buf) // a failed write leaves no client to tell
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req wire.UpdateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	d, lock, err := s.resolve(req.Dataset)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A storage-degraded dataset refuses mutations up front: memory already
	// matches the last durable state, and applying more writes would only
	// widen the gap. Explains keep serving that state; updates 503 until an
	// operator repairs the store and restarts.
	lock.RLock()
	derr := d.Err()
	lock.RUnlock()
	if derr != nil {
		writeError(w, http.StatusServiceUnavailable, derr)
		return
	}

	// Build the mutation batch: inserts in request order, then deletes.
	// Content-addressed deletes resolve against the current database here;
	// the resolution is revalidated by Database.Delete under the write
	// lock (a concurrent delete of the same fact surfaces as "no fact with
	// ID").
	muts := make([]repro.Mutation, 0, len(req.Inserts)+len(req.Deletes))
	for _, ins := range req.Inserts {
		vals, err := wire.DecodeValues(ins.Values)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		muts = append(muts, repro.InsertOp(ins.Relation, ins.Endogenous, vals...))
	}
	var deleteIDs []int64
	for _, del := range req.Deletes {
		id := repro.FactID(del.ID)
		if del.ID == 0 {
			lock.RLock()
			id, err = resolveFact(d, del)
			lock.RUnlock()
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		deleteIDs = append(deleteIDs, int64(id))
		muts = append(muts, repro.DeleteOp(id))
	}

	// The query names no session to route through: every session over the
	// dataset catches up from its mutation feed. A malformed one is still
	// rejected.
	if req.Query != "" {
		if _, err := repro.ParseQuery(req.Query); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	resp := wire.UpdateResponse{DeletedIDs: deleteIDs, Pooled: req.Query != "", BatchRequests: 1, RequestID: requestID(r)}
	_, root := trace.NewRoot(r.Context(), "update", s.rec.ObserveStage)
	lock.Lock()
	facts, err := repro.Apply(d, muts)
	lock.Unlock()
	root.End()
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	for _, f := range facts {
		if f != nil {
			resp.InsertedIDs = append(resp.InsertedIDs, int64(f.ID))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveFact finds the fact a content-addressed DeleteSpec names.
func resolveFact(d *repro.Database, del wire.DeleteSpec) (repro.FactID, error) {
	vals, err := wire.DecodeValues(del.Values)
	if err != nil {
		return 0, err
	}
	want := repro.Tuple(vals)
	rel := d.Relation(del.Relation)
	if rel == nil {
		return 0, fmt.Errorf("server: %w %q", repro.ErrUnknownRelation, del.Relation)
	}
	for _, f := range rel.Facts() {
		if f.Tuple.Equal(want) {
			return f.ID, nil
		}
	}
	return 0, fmt.Errorf("server: %w matching %s%s", repro.ErrNoFact, del.Relation, want)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
