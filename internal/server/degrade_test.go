package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/flights"
	"repro/internal/wire"
)

// checkDegradedResponse asserts every tuple of a served response is a
// well-formed marked approximation: approximate flag, positive sample
// count, and finite ordered confidence bounds around every score.
func checkDegradedResponse(t *testing.T, resp wire.ExplainResponse, label string) {
	t.Helper()
	if len(resp.Tuples) == 0 {
		t.Fatalf("%s: no tuples served", label)
	}
	for _, tup := range resp.Tuples {
		if !tup.Approximate || tup.Method != "approximate" {
			t.Fatalf("%s: method %q approximate=%v, want a marked approximation",
				label, tup.Method, tup.Approximate)
		}
		if tup.Samples <= 0 {
			t.Errorf("%s: %d samples reported", label, tup.Samples)
		}
		for _, f := range tup.Facts {
			if f.CILow == nil || f.CIHigh == nil {
				t.Fatalf("%s: fact %d missing confidence bounds", label, f.ID)
			}
			lo, hi := *f.CILow, *f.CIHigh
			if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
				t.Fatalf("%s: fact %d non-finite bounds [%v, %v]", label, f.ID, lo, hi)
			}
			if lo > hi || f.Score < lo || f.Score > hi {
				t.Errorf("%s: fact %d score %v outside CI [%v, %v]", label, f.ID, f.Score, lo, hi)
			}
			if f.ValueRat != "" {
				t.Errorf("%s: approximate fact %d claims exact rational %q", label, f.ID, f.ValueRat)
			}
		}
	}
}

// TestServerStarvedBudgetDegrades boots the server with a starvation node
// budget: an explain must answer 200 with marked approximate values, never
// a 5xx, and the node_budget cause counter on /metrics must tick. A
// "mode": "exact" request opts out of the sampling fallback and is answered
// exactly under the server's own limits.
func TestServerStarvedBudgetDegrades(t *testing.T) {
	starved := Config{
		Options: repro.Options{
			Budget: repro.ExplainBudget{MaxNodes: 1, MinSamples: 128},
		},
	}
	url, _, _ := newTestServer(t, starved)
	req := wire.ExplainRequest{Dataset: "flights", Query: flights.Query().String()}
	var resp wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", req, &resp); status != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", status, raw)
	}
	checkDegradedResponse(t, resp, "starved server")

	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, `repro_degraded_total{route="/v1/explain",cause="node_budget"}`); n < 1 {
		t.Errorf("node_budget degraded counter = %v, want ≥ 1", n)
	}
	ok := metric(t, samples, `repro_requests_total{route="/v1/explain",code="200"}`)
	if all := metric(t, samples, `repro_requests_total{route="/v1/explain"}`); all != ok {
		t.Errorf("explain route reports %v non-200s on degraded traffic", all-ok)
	}

	// A fresh server, so that no cached or upgraded exact answer can stand
	// in for the exact computation the mode asks for.
	url, _, d := newTestServer(t, starved)
	req.Mode = "exact"
	resp = wire.ExplainResponse{}
	if status, raw := postJSON(t, url+"/v1/explain", req, &resp); status != http.StatusOK {
		t.Fatalf("mode exact: status %d, want 200: %s", status, raw)
	}
	for _, tup := range resp.Tuples {
		if tup.Method != "exact" {
			t.Fatalf("mode exact: tuple method %q, want exact", tup.Method)
		}
	}
	assertServedMatchesCold(t, resp, d, "starved server, mode exact")
}

// TestServerPerRequestBudget maps request knobs onto the budget: budget_ms
// with mode=approximate degrades one request on an otherwise exact server,
// and the next unbudgeted request serves exact values again.
func TestServerPerRequestBudget(t *testing.T) {
	url, _, d := newTestServer(t, Config{})
	q := flights.Query().String()

	var resp wire.ExplainResponse
	status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{
		Dataset: "flights", Query: q, Mode: "approximate", MinSamples: 128, Seed: 7,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("budgeted explain: status %d: %s", status, raw)
	}
	checkDegradedResponse(t, resp, "per-request approximate")

	// Same request, same seed: byte-identical estimates — unless the
	// background upgrade already replaced the cached answer with the exact
	// one, which a budgeted request rightly serves as-is.
	var resp2 wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{
		Dataset: "flights", Query: q, Mode: "approximate", MinSamples: 128, Seed: 7,
	}, &resp2); status != http.StatusOK {
		t.Fatalf("repeat budgeted explain: status %d: %s", status, raw)
	}
	for i, tup := range resp.Tuples {
		if resp2.Tuples[i].Method == "exact" {
			continue // upgraded in place between the two requests
		}
		for j, f := range tup.Facts {
			g := resp2.Tuples[i].Facts[j]
			if f.Score != g.Score || *f.CILow != *g.CILow || *f.CIHigh != *g.CIHigh {
				t.Fatalf("same seed diverged on fact %d: %v vs %v", f.ID, f, g)
			}
		}
	}

	// Unbudgeted requests on the same pooled session stay exact (the
	// degraded cache entry never leaks into them).
	var exact wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{
		Dataset: "flights", Query: q,
	}, &exact); status != http.StatusOK {
		t.Fatalf("unbudgeted explain: status %d: %s", status, raw)
	}
	assertServedMatchesCold(t, exact, d, "unbudgeted after degraded")

	// budget_ms alone arms a deadline; a 1 µs budget degrades mid-compile
	// rather than 504ing, and so does a 0.1 ns one, which rounds up to the
	// shortest deadline rather than down to none. Each goes to a fresh
	// server without the process-wide value cache, since a pooled session
	// rightly serves its cached exact answer within any budget, and a value
	// cache hit can answer exactly within 1 µs.
	for _, req := range tinyBudgetRequests() {
		url, _, _ := newTestServer(t, Config{Options: repro.Options{CacheSize: -1}})
		var tiny wire.ExplainResponse
		if status, raw := postJSON(t, url+"/v1/explain", req, &tiny); status != http.StatusOK {
			t.Fatalf("budget_ms %v explain: status %d: %s", req.BudgetMs, status, raw)
		}
		checkDegradedResponse(t, tiny, fmt.Sprintf("budget_ms %v deadline", req.BudgetMs))
	}
}

// tinyBudgetRequests are explains whose budget_ms is too short for any
// exact attempt to finish.
func tinyBudgetRequests() []wire.ExplainRequest {
	q := flights.Query().String()
	var out []wire.ExplainRequest
	for _, ms := range []float64{0.001, 1e-7} {
		out = append(out, wire.ExplainRequest{Dataset: "flights", Query: q, BudgetMs: ms, MinSamples: 64})
	}
	return out
}

// badBudget is an explain request whose budget knobs the server rejects
// with a 400 naming the offending field.
type badBudget struct {
	name string
	req  wire.ExplainRequest
	want string
}

func badBudgets() []badBudget {
	q := flights.Query().String()
	return []badBudget{
		{"bad mode", wire.ExplainRequest{Dataset: "flights", Query: q, Mode: "fast"}, "unknown explain mode"},
		{"negative budget", wire.ExplainRequest{Dataset: "flights", Query: q, BudgetMs: -1}, "budget_ms"},
		{"huge budget", wire.ExplainRequest{Dataset: "flights", Query: q, BudgetMs: 1e13}, "budget_ms"},
		{"negative samples", wire.ExplainRequest{Dataset: "flights", Query: q, MinSamples: -1}, "min_samples"},
	}
}

// TestServerBudgetValidation rejects malformed budget knobs with 400s.
func TestServerBudgetValidation(t *testing.T) {
	url, _, _ := newTestServer(t, Config{})
	for _, c := range badBudgets() {
		status, raw := postJSON(t, url+"/v1/explain", c.req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, status, raw)
		}
		if !strings.Contains(raw, c.want) {
			t.Errorf("%s: error %q missing %q", c.name, raw, c.want)
		}
	}
}

// TestServerDegradedThenUpgraded: after a degraded pooled explain, the
// session's background upgrade eventually flips the cached answer to exact,
// observable through continued budgeted requests.
func TestServerDegradedThenUpgraded(t *testing.T) {
	url, _, d := newTestServer(t, Config{})
	q := flights.Query().String()
	req := wire.ExplainRequest{Dataset: "flights", Query: q, Mode: "approximate", MinSamples: 64}

	var resp wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", req, &resp); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	checkDegradedResponse(t, resp, "initial degraded")

	// Keep asking with the budget enabled; the background upgrade installs
	// the exact answer, which budgeted requests then serve as-is.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status, raw := postJSON(t, url+"/v1/explain", req, &resp); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		if len(resp.Tuples) > 0 && resp.Tuples[0].Method == "exact" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background upgrade never surfaced through the server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertServedMatchesCold(t, resp, d, "upgraded served answer")
}
