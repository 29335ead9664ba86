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
// acquire/tuple/tseytin/compile/dnnf stages nested inside, the cold open's
// ground under acquire, and compiler node counts attached where the
// pipeline produced them.
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
	for _, name := range []string{"acquire", "tuple", "tseytin", "compile", "dnnf", "shapley"} {
		if root.Find(name) == nil {
			t.Errorf("trace has no %q span:\n%s", name, raw)
		}
	}
	// This request opened the pooled session, so its grounding is part of
	// the acquire wait.
	if root.Find("acquire").Find("ground") == nil {
		t.Errorf("cold pooled open has no ground span under acquire:\n%s", raw)
	}
	if sp := root.Find("dnnf"); sp != nil {
		nodes, ok := sp.Attrs["nodes"].(float64)
		if !ok || nodes <= 0 {
			t.Errorf("dnnf span nodes attr = %v, want > 0", sp.Attrs["nodes"])
		}
	}

	// A repeat explain of the same pooled key serves the session's tuple
	// cache; the tuple span says so.
	var warm wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", req, &warm); status != http.StatusOK {
		t.Fatalf("warm status %d: %s", status, raw)
	}
	tup := warm.Trace.Find("tuple")
	if tup == nil {
		t.Fatal("warm trace has no tuple span")
	}
	if cached, _ := tup.Attrs["cached"].(bool); !cached {
		t.Errorf("warm tuple span cached attr = %v, want true", tup.Attrs["cached"])
	}

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
	for _, require := range []string{
		`repro_requests_total{route="/v1/explain",code="200"}`,
		`repro_degraded_total{route="/v1/explain",cause="node_budget"}`,
		`repro_request_duration_seconds_bucket{route="/v1/explain",le="+Inf"}`,
		`repro_stage_duration_seconds_bucket{stage="compile",le="+Inf"}`,
		`repro_stage_duration_seconds_bucket{stage="approx",le="+Inf"}`,
		`repro_stage_duration_seconds_bucket{stage="ground",le="+Inf"}`,
		"repro_pool_sessions",
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
	url, _, _ := newTestServer(t, Config{SlowThreshold: time.Nanosecond, SlowLogSize: 2})
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
