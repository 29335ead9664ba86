package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/dnnf"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Request IDs: a per-process random base plus a sequence number, so IDs are
// unique across restarts without coordination and still sort by arrival
// within one process. The ID is assigned in instrument, sent back as the
// X-Request-Id header, echoed in response bodies, and tags every log line
// and slow-log entry for the request.

func newIDBase() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the clock.
		return strconv.FormatInt(time.Now().UnixNano()&0xffffffff, 16)
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.idSeq.Add(1))
}

// requestIDKey carries the assigned request ID through the request context.
type requestIDKey struct{}

// requestID returns the ID instrument assigned, or "" outside a request.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// slowLog is the ring buffer behind GET /v1/debug/slow: the most recent
// requests whose wall clock met the configured threshold, each with its
// full stage trace. Bounded, so a misbehaving workload cannot grow it.
type slowLog struct {
	mu      sync.Mutex
	cap     int
	entries []wire.SlowEntry
	next    int // ring cursor once len == cap
}

// slowLogSize bounds the slow-explain ring.
const slowLogSize = 128

func newSlowLog(capacity int) *slowLog { return &slowLog{cap: capacity} }

func (l *slowLog) add(e wire.SlowEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % l.cap
}

// snapshot returns the retained entries oldest first.
func (l *slowLog) snapshot() []wire.SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]wire.SlowEntry, 0, len(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// handleSlow serves the slow-explain ring. Like /metrics it is
// admission-exempt: the whole point is observing a server that is slow.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, wire.SlowResponse{
		ThresholdMs: float64(s.cfg.SlowThreshold) / float64(time.Millisecond),
		Entries:     s.slow.snapshot(),
	})
}

// handleMetrics serves the Prometheus text exposition, the server's only
// stats surface: the recorder's request/stage series first, then
// process-level series for the session pool, the value cache, the
// compiler's compilation count, and each dataset.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	s.rec.WritePrometheus(w)
	writeProcessMetrics(w, s)
}

func writeProcessMetrics(w io.Writer, s *Server) {
	pool := s.pool.Stats()
	counter := func(name, help string, v int64) {
		metrics.WriteHeader(w, name, "counter", help)
		metrics.WriteSample(w, name, nil, float64(v))
	}
	metrics.WriteGauge(w, "repro_pool_sessions", "Pooled sessions currently open.", nil, float64(pool.Sessions))
	metrics.WriteGauge(w, "repro_pool_capacity", "Session pool capacity.", nil, float64(pool.Capacity))
	counter("repro_pool_opens_total", "Sessions opened (cold grounding).", pool.Opens)
	counter("repro_pool_reuses_total", "Requests served by an already-warm pooled session.", pool.Reuses)
	counter("repro_pool_evictions_total", "Sessions closed by the LRU capacity bound.", pool.Evictions)
	metrics.WriteHeader(w, "repro_explain_renders_total", "counter",
		"Explained tuples by whether their response bytes were kept from an earlier request at the same top (hit) or rendered for this one (miss).")
	metrics.WriteSample(w, "repro_explain_renders_total", []metrics.Label{{Name: "cache", Value: "hit"}}, float64(s.renderHits.Load()))
	metrics.WriteSample(w, "repro_explain_renders_total", []metrics.Label{{Name: "cache", Value: "miss"}}, float64(s.renderMisses.Load()))

	cache := repro.CompileCacheStats()
	metrics.WriteHeader(w, "repro_compile_cache_hits_total", "counter",
		"Shapley-value cache hits by kind: identical (same facts) or renamed (isomorphic lineage over other facts).")
	metrics.WriteSample(w, "repro_compile_cache_hits_total", []metrics.Label{{Name: "kind", Value: "identical"}}, float64(cache.IdenticalHits))
	metrics.WriteSample(w, "repro_compile_cache_hits_total", []metrics.Label{{Name: "kind", Value: "renamed"}}, float64(cache.RenamedHits))
	counter("repro_compile_cache_misses_total", "Shapley-value cache misses.", cache.Misses)
	counter("repro_compile_cache_evictions_total", "Shapley-value cache LRU evictions.", cache.Evictions)
	counter("repro_compile_cache_invalidations_total", "Shapley-value cache entries dropped by fact deletions.", cache.Invalidations)
	metrics.WriteGauge(w, "repro_compile_cache_entries", "Shapley-value cache occupancy.", nil, float64(cache.Len))
	metrics.WriteGauge(w, "repro_compile_cache_capacity", "Shapley-value cache capacity in entries.", nil, float64(cache.Capacity))

	counter("repro_compilations_total", "d-DNNF compilations run.", dnnf.Compilations())

	names := make([]string, 0, len(s.cfg.Datasets))
	for name := range s.cfg.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	metrics.WriteHeader(w, "repro_dataset_facts", "gauge", "Facts per served dataset.")
	for _, name := range names {
		lock := s.locks[name]
		lock.RLock()
		n := s.cfg.Datasets[name].NumFacts()
		lock.RUnlock()
		metrics.WriteSample(w, "repro_dataset_facts", []metrics.Label{{Name: "dataset", Value: name}}, float64(n))
	}
	metrics.WriteHeader(w, "repro_dataset_degraded", "gauge", "1 when the dataset's store is degraded to read-only.")
	for _, name := range names {
		lock := s.locks[name]
		lock.RLock()
		derr := s.cfg.Datasets[name].Err()
		lock.RUnlock()
		v := 0.0
		if derr != nil {
			v = 1
		}
		metrics.WriteSample(w, "repro_dataset_degraded", []metrics.Label{{Name: "dataset", Value: name}}, v)
	}
}

// loopbackOnly gates a handler to loopback clients: profiling endpoints
// expose process internals, so a server listening on a routable address
// still refuses remote profile requests unless explicitly opened up.
func loopbackOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			writeError(w, http.StatusForbidden, fmt.Errorf("server: profiling is loopback-only (from %s)", r.RemoteAddr))
			return
		}
		h.ServeHTTP(w, r)
	})
}

// registerPprof mounts net/http/pprof under /debug/pprof/, loopback-gated
// and admission-exempt (profiling a wedged server is exactly when admission
// would refuse).
func (s *Server) registerPprof() {
	s.mux.Handle("/debug/pprof/", loopbackOnly(http.HandlerFunc(pprof.Index)))
	s.mux.Handle("/debug/pprof/cmdline", loopbackOnly(http.HandlerFunc(pprof.Cmdline)))
	s.mux.Handle("/debug/pprof/profile", loopbackOnly(http.HandlerFunc(pprof.Profile)))
	s.mux.Handle("/debug/pprof/symbol", loopbackOnly(http.HandlerFunc(pprof.Symbol)))
	s.mux.Handle("/debug/pprof/trace", loopbackOnly(http.HandlerFunc(pprof.Trace)))
}
