package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/flights"
	"repro/internal/promlint"
	"repro/internal/wire"
)

// scrapeMetrics fetches GET /metrics, validates the exposition as CI's
// promcheck does, and returns its samples.
func scrapeMetrics(t *testing.T, url string) []promlint.Sample {
	t.Helper()
	status, text := getBody(t, url+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if _, err := promlint.Validate(text); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	samples, _, err := promlint.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// metric totals the scraped samples matching req (see promlint.Sum),
// failing the test when none does.
func metric(t *testing.T, samples []promlint.Sample, req string) float64 {
	t.Helper()
	v, err := promlint.Sum(samples, req)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestExplainTraceSpans: a trace:true explain returns the span tree — root
// "explain" whose duration is the reported request latency, with the
// acquire/tuple/tseytin/compile stages nested inside, the cold open's
// ground under acquire, and compiler node counts attached where the
// pipeline produced them. Every span is one stage of work: the compile
// span names its value-cache outcome, and a miss reports the compiler's
// decisions on it and runs Algorithm 1 under a "shapley" span, while a hit
// (other tests of the package share the process-wide cache) has neither;
// no span is named "dnnf"; a tuple served from the session's cache opens
// no span; and a catch-up is one childless "delta" span after which only
// the tuple whose lineage changed opens a "tuple" span.
func TestExplainTraceSpans(t *testing.T) {
	url, _, _ := newTestServer(t, Config{})
	req := wire.ExplainRequest{Dataset: "flights", Query: flights.Query().String(), Trace: true}
	var resp wire.ExplainResponse
	status, raw := postJSON(t, url+"/v1/explain", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.RequestID == "" {
		t.Error("response missing request_id")
	}
	root := resp.Trace
	if root == nil {
		t.Fatal("trace:true response has no trace")
	}
	if root.Name != "explain" {
		t.Fatalf("root span %q, want explain", root.Name)
	}
	// The root's duration is the reported request latency.
	if math.Abs(root.DurationMs-resp.ElapsedMs) > 0.01 {
		t.Errorf("root span %vms != elapsed_ms %v", root.DurationMs, resp.ElapsedMs)
	}
	// Direct children (acquire + one span per tuple) partition the request:
	// their durations sum to at most the root's, and — since the pipeline is
	// synchronous — account for nearly all of it.
	var sum float64
	for _, c := range root.Children {
		sum += c.DurationMs
	}
	if sum > root.DurationMs+1 {
		t.Errorf("children sum %vms exceeds root %vms", sum, root.DurationMs)
	}
	for _, name := range []string{"acquire", "tuple", "tseytin", "compile"} {
		if root.Find(name) == nil {
			t.Fatalf("trace has no %q span:\n%s", name, raw)
		}
	}
	checkCompileSpans(t, root, raw)
	// This request opened the pooled session, so its grounding is part of
	// the acquire wait.
	if root.Find("acquire").Find("ground") == nil {
		t.Errorf("cold pooled open has no ground span under acquire:\n%s", raw)
	}

	// A repeat explain of the same pooled key serves the session's tuple
	// cache, which opens no span.
	var warm wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", req, &warm); status != http.StatusOK {
		t.Fatalf("warm status %d: %s", status, raw)
	}
	if names := spanNames(warm.Trace); names["tuple"] != 0 || names["compile"] != 0 {
		t.Errorf("warm trace opened spans %v, want no tuple or compile span", names)
	}

	// An update that adds a one-stop route (LAX→LHR, then on to CDG or ORY)
	// changes the answer's lineage: the next explain replays it as one
	// childless delta span and recomputes the tuple under one tuple span.
	update := wire.UpdateRequest{Dataset: "flights", Inserts: []wire.InsertSpec{{
		Relation: "Flights", Endogenous: true,
		Values: []json.RawMessage{json.RawMessage(`"LAX"`), json.RawMessage(`"LHR"`)},
	}}}
	if status, raw := postJSON(t, url+"/v1/update", update, nil); status != http.StatusOK {
		t.Fatalf("update status %d: %s", status, raw)
	}
	var after wire.ExplainResponse
	status, raw = postJSON(t, url+"/v1/explain", req, &after)
	if status != http.StatusOK {
		t.Fatalf("post-update status %d: %s", status, raw)
	}
	if names := spanNames(after.Trace); names["delta"] != 1 || names["tuple"] != 1 {
		t.Errorf("post-update trace opened spans %v, want one delta and one tuple span:\n%s", names, raw)
	}
	if delta := after.Trace.Find("delta"); delta != nil && len(delta.Children) != 0 {
		t.Errorf("delta span has %d children, want none:\n%s", len(delta.Children), raw)
	}
	checkCompileSpans(t, after.Trace, raw)

	// Without trace:true the tree stays server-side.
	req.Trace = false
	var quiet wire.ExplainResponse
	if status, _ := postJSON(t, url+"/v1/explain", req, &quiet); status != http.StatusOK {
		t.Fatalf("untraced status %d", status)
	}
	if quiet.Trace != nil {
		t.Error("untraced response carries a trace")
	}
}

// spanNames counts the spans of a trace by name.
func spanNames(root *wire.TraceSpan) map[string]int {
	names := make(map[string]int)
	root.Walk(func(n *wire.TraceSpan) { names[n.Name]++ })
	return names
}

// checkCompileSpans checks the compile stage of a trace that computed one
// tuple on a server without a node budget: its span names the value-cache
// outcome and the circuit's size; a miss also carries the compiler's
// decisions and is followed by a shapley span, a hit carries no decisions
// and opens no shapley span; and no span is named "dnnf". Under a node
// budget a renamed hit compiles the caller's CNF and carries decisions too.
func checkCompileSpans(t *testing.T, root *wire.TraceSpan, raw string) {
	t.Helper()
	if names := spanNames(root); names["dnnf"] != 0 {
		t.Errorf("trace has %d dnnf spans, want none:\n%s", names["dnnf"], raw)
	}
	compile := root.Find("compile")
	if compile == nil {
		t.Errorf("trace has no compile span:\n%s", raw)
		return
	}
	if nodes, ok := compile.Attrs["nodes"].(float64); !ok || nodes <= 0 {
		t.Errorf("compile span nodes attr = %v, want > 0", compile.Attrs["nodes"])
	}
	decisions, ran := compile.Attrs["decisions"].(float64)
	switch kind := compile.Attrs["cache"]; kind {
	case "miss":
		if !ran || decisions <= 0 {
			t.Errorf("cache miss: compile span decisions attr = %v, want > 0", compile.Attrs["decisions"])
		}
		if root.Find("shapley") == nil {
			t.Errorf("cache miss traced no shapley span:\n%s", raw)
		}
	case "identical", "renamed":
		if ran {
			t.Errorf("cache hit: compile span carries decisions = %v", decisions)
		}
		if root.Find("shapley") != nil {
			t.Errorf("cache hit traced a shapley span:\n%s", raw)
		}
	default:
		t.Errorf("compile span cache attr = %v, want miss, identical or renamed", kind)
	}
}

// TestDegradedCauseAndMetrics: a starved node budget degrades every tuple
// with cause node_budget, which surfaces in the wire response, the labeled
// repro_degraded_total counter, and a /metrics exposition that passes the
// same validation CI applies. The cold pooled open's grounding and the
// background exact upgrade it schedules feed the per-stage histograms too.
func TestDegradedCauseAndMetrics(t *testing.T) {
	url, _, _ := newTestServer(t, Config{
		Options: repro.Options{
			Budget: repro.ExplainBudget{MaxNodes: 1, MinSamples: 128},
		},
	})
	var resp wire.ExplainResponse
	req := wire.ExplainRequest{Dataset: "flights", Query: flights.Query().String()}
	if status, raw := postJSON(t, url+"/v1/explain", req, &resp); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	for _, tup := range resp.Tuples {
		if tup.DegradedCause != "node_budget" {
			t.Errorf("tuple degraded_cause = %q, want node_budget", tup.DegradedCause)
		}
	}

	samples := scrapeMetrics(t, url)
	for _, require := range []string{
		`repro_requests_total{route="/v1/explain",code="200"}`,
		`repro_degraded_total{route="/v1/explain",cause="node_budget"}`,
		`repro_request_duration_seconds_bucket{route="/v1/explain",le="+Inf"}`,
		`repro_stage_duration_seconds_bucket{stage="compile",le="+Inf"}`,
		`repro_stage_duration_seconds_bucket{stage="approx",le="+Inf"}`,
		`repro_stage_duration_seconds_bucket{stage="ground",le="+Inf"}`,
		"repro_pool_sessions",
		"repro_pool_evictions_total",
		"repro_compile_cache_capacity",
		"repro_compilations_total",
		`repro_dataset_facts{dataset="flights"}`,
	} {
		if err := promlint.Require(samples, require); err != nil {
			t.Errorf("%v", err)
		}
	}

	// The degraded answer schedules a background exact upgrade, whose own
	// trace root reports under stage="upgrade" once it finishes.
	const upgrade = `repro_stage_duration_seconds_bucket{stage="upgrade",le="+Inf"}`
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, text := getBody(t, url+"/metrics")
		samples, _, err := promlint.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if promlint.Require(samples, upgrade) == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s series within 10s", upgrade)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowLog: with a 1ns threshold every explain is slow; the ring serves
// the request's identity and full trace, and stays bounded.
func TestSlowLog(t *testing.T) {
	url, s, _ := newTestServer(t, Config{SlowThreshold: time.Nanosecond})
	s.slow = newSlowLog(2)
	req := wire.ExplainRequest{Dataset: "flights", Query: flights.Query().String()}
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		var resp wire.ExplainResponse
		if status, raw := postJSON(t, url+"/v1/explain", req, &resp); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		ids[resp.RequestID] = true
	}
	status, raw := getBody(t, url+"/v1/debug/slow")
	if status != http.StatusOK {
		t.Fatalf("/v1/debug/slow status %d", status)
	}
	var slow wire.SlowResponse
	if err := json.Unmarshal([]byte(raw), &slow); err != nil {
		t.Fatalf("decode: %v\n%s", err, raw)
	}
	if len(slow.Entries) != 2 {
		t.Fatalf("slow log retained %d entries, want ring cap 2", len(slow.Entries))
	}
	for _, e := range slow.Entries {
		if !ids[e.RequestID] {
			t.Errorf("slow entry has unknown request_id %q", e.RequestID)
		}
		if e.Trace == nil || e.Trace.Name != "explain" {
			t.Errorf("slow entry %s missing its trace", e.RequestID)
		}
		if e.ElapsedMs <= 0 || e.Dataset != "flights" {
			t.Errorf("malformed slow entry: %+v", e)
		}
	}
}

// TestRequestIDs: every response carries a distinct X-Request-Id, echoed in
// explain bodies.
func TestRequestIDs(t *testing.T) {
	url, _, _ := newTestServer(t, Config{})
	req := wire.ExplainRequest{Dataset: "flights", Query: flights.Query().String()}
	blob, _ := json.Marshal(req)
	seen := make(map[string]bool)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(url+"/v1/explain", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		header := resp.Header.Get("X-Request-Id")
		var body wire.ExplainResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if header == "" || header != body.RequestID {
			t.Fatalf("header id %q vs body id %q", header, body.RequestID)
		}
		if seen[header] {
			t.Fatalf("request ID %q repeated", header)
		}
		seen[header] = true
	}
}

// TestPprofGate: /debug/pprof is absent by default, present for loopback
// clients when enabled, and 403 for non-loopback clients.
func TestPprofGate(t *testing.T) {
	url, _, _ := newTestServer(t, Config{})
	if status, _ := getBody(t, url+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", status)
	}

	url2, s2, _ := newTestServer(t, Config{EnablePprof: true})
	// httptest clients connect over loopback, so the gate admits them.
	if status, raw := getBody(t, url2+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("pprof on, loopback: status %d: %s", status, raw)
	}
	// A non-loopback peer is refused (RemoteAddr set by hand, as httptest
	// would for a remote client).
	r := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	r.RemoteAddr = "192.0.2.1:4242"
	w := httptest.NewRecorder()
	s2.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusForbidden {
		t.Errorf("pprof on, remote: status %d, want 403", w.Code)
	}
}
