package servebench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/flights"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServer serves a freshly built flights dataset under cfg, through
// wrap when it is not nil, and returns the test server's URL.
func startServer(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	d, _ := flights.Build()
	cfg.Datasets = map[string]*repro.Database{dataset: d}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunInProcess runs the gate against a server whose first explain is
// shed with a 429: explain and mixed phases at two concurrency levels, the
// shed request retried, pool counters collected, and every quiesced value
// cross-checked against the cold reference.
func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP load; skipped in -short mode")
	}
	var shed atomic.Bool
	url := startServer(t, server.Config{PoolSize: 4}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/explain" && shed.CompareAndSwap(false, true) {
				http.Error(w, "over capacity", http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	rep, err := Run(context.Background(), Options{
		TargetURL:   url,
		Clients:     []int{1, 3},
		Requests:    4,
		UpdateEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per client and level: 4 explains, then 2 explains and 2 updates in
	// the mixed phase; one quiesced explain per level.
	if rep.Explains != 4*6+2 || rep.Updates != 2*4 || rep.ValueChecks != 2 {
		t.Errorf("%d explains, %d updates, %d value checks; want 26, 8 and 2",
			rep.Explains, rep.Updates, rep.ValueChecks)
	}
	if rep.Exact+rep.Approx != 0 {
		t.Errorf("budgeted counts %d + %d without a budgeted phase", rep.Exact, rep.Approx)
	}
	if rep.Retries != 1 {
		t.Errorf("retries = %d, want 1 (the shed explain)", rep.Retries)
	}
	if rep.Pool.Opens < 1 || rep.Pool.Reuses < 1 || rep.Pool.Capacity != 4 {
		t.Errorf("pool counters: %+v", rep.Pool)
	}
	if rep.Cache.Hits+rep.Cache.Misses == 0 || rep.Cache.Capacity <= 0 {
		t.Errorf("value cache untouched: %+v", rep.Cache)
	}
}

// TestRunFailsOnServerError: a non-2xx answer other than 429/503 fails the
// run at once.
func TestRunFailsOnServerError(t *testing.T) {
	url := startServer(t, server.Config{}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "broken", http.StatusInternalServerError)
		})
	})
	_, err := Run(context.Background(), Options{TargetURL: url, Clients: []int{1}, Requests: 1})
	if err == nil || !strings.Contains(err.Error(), "-> 500") {
		t.Fatalf("Run error = %v, want one naming the 500", err)
	}
}

// TestReadMetricsRequiresSeries: a scrape that lacks a series the report
// reads fails the run and names the series, instead of reporting zero.
func TestReadMetricsRequiresSeries(t *testing.T) {
	const exposition = `# TYPE repro_pool_opens_total counter
repro_pool_opens_total 3
# TYPE repro_degraded_total counter
repro_degraded_total{route="/v1/explain",cause="mode"} 2
repro_degraded_total{route="/v1/explain",cause="deadline"} 1
repro_degraded_total{route="/v1/update",cause="mode"} 5
`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, exposition)
	}))
	defer ts.Close()
	var rep Report
	err := readMetrics(context.Background(), &client{hc: ts.Client(), base: ts.URL}, &rep)
	if err == nil || !strings.Contains(err.Error(), "repro_pool_reuses_total") {
		t.Fatalf("readMetrics error = %v, want one naming the missing repro_pool_reuses_total", err)
	}
	if strings.Contains(err.Error(), "repro_pool_opens_total") || strings.Contains(err.Error(), "repro_degraded_total") {
		t.Errorf("readMetrics error names a series the exposition has: %v", err)
	}
	if rep.Pool.Opens != 3 || rep.Degraded != 3 {
		t.Errorf("opens = %d, degraded = %d; want 3 and 3 (explain causes summed)", rep.Pool.Opens, rep.Degraded)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Clients) != 3 || o.Requests != 8 || o.UpdateEvery != 4 {
		t.Errorf("defaults: %+v", o)
	}
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Error("a run without a target URL started")
	}
}

// TestCheckAgainstReference: the cross-check passes the cold explain's own
// answer and fails a served value off by anything, a missing fact, and an
// approximation that is unmarked, unwanted or without finite ordered bounds.
func TestCheckAgainstReference(t *testing.T) {
	ref, err := coldReference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := flights.Build()
	es, err := repro.Explain(context.Background(), d, flights.Query(), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	served := func() *wire.ExplainResponse {
		return &wire.ExplainResponse{Tuples: wire.EncodeExplanations(d, es, 0)}
	}
	if err := checkAgainstReference(ref, served(), false); err != nil {
		t.Fatalf("the cold answer itself fails: %v", err)
	}
	approx := func(resp *wire.ExplainResponse, lo, hi float64) {
		tup := &resp.Tuples[0]
		tup.Method, tup.Approximate, tup.Samples = "approximate", true, 64
		for i := range tup.Facts {
			f := &tup.Facts[i]
			f.ValueRat, f.CILow, f.CIHigh = "", &lo, &hi
			f.Score = (lo + hi) / 2
		}
	}
	good := served()
	approx(good, 0, 1)
	if err := checkAgainstReference(ref, good, true); err != nil {
		t.Errorf("a marked approximation fails: %v", err)
	}
	for _, c := range []struct {
		name        string
		edit        func(*wire.ExplainResponse)
		allowApprox bool
		want        string
	}{
		{"value off", func(r *wire.ExplainResponse) { r.Tuples[0].Facts[0].ValueRat = "1/3" }, false, "not big.Rat-identical"},
		{"fact missing", func(r *wire.ExplainResponse) { r.Tuples[0].Facts = r.Tuples[0].Facts[1:] }, false, "cold reference has"},
		{"proxy", func(r *wire.ExplainResponse) { r.Tuples[0].Method = "cnf-proxy" }, true, "want exact"},
		{"approximation unwanted", func(r *wire.ExplainResponse) { approx(r, 0, 1) }, false, "where exact was required"},
		{"bounds missing", func(r *wire.ExplainResponse) { approx(r, 0, 1); r.Tuples[0].Facts[0].CIHigh = nil }, true, "missing confidence bounds"},
		{"bounds reversed", func(r *wire.ExplainResponse) { approx(r, 1, 0) }, true, "outside its CI"},
		{"no samples", func(r *wire.ExplainResponse) { approx(r, 0, 1); r.Tuples[0].Samples = 0 }, true, "samples"},
	} {
		resp := served()
		c.edit(resp)
		if err := checkAgainstReference(ref, resp, c.allowApprox); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestRunBudgetedPhase drives the budgeted phase: with a budget_ms on every
// request, each response must be exact-within-budget or a marked
// approximation (validated per response), and the report counts the mix.
func TestRunBudgetedPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP load; skipped in -short mode")
	}
	url := startServer(t, server.Config{
		Options: repro.Options{Budget: repro.ExplainBudget{MinSamples: 64}},
	}, nil)
	rep, err := Run(context.Background(), Options{
		TargetURL:   url,
		Clients:     []int{2},
		Requests:    4,
		UpdateEvery: -1,
		BudgetMs:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact+rep.Approx != 8 {
		t.Errorf("budgeted mix %d exact + %d approx, want 8 explains", rep.Exact, rep.Approx)
	}
	if rep.Explains != 8+8+1 || rep.Updates != 0 {
		t.Errorf("%d explains and %d updates, want 17 and 0", rep.Explains, rep.Updates)
	}
}

// TestRunStarvedServerAllowApprox is the degradation smoke in miniature: a
// server with a starvation node budget must answer every phase with 200s,
// and with AllowApprox the quiesced cross-check accepts marked
// approximations (and only marked ones).
func TestRunStarvedServerAllowApprox(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP load; skipped in -short mode")
	}
	url := startServer(t, server.Config{
		Options: repro.Options{Budget: repro.ExplainBudget{MaxNodes: 1, MinSamples: 64}},
	}, nil)
	rep, err := Run(context.Background(), Options{
		TargetURL:   url,
		Clients:     []int{2},
		Requests:    3,
		UpdateEvery: -1,
		AllowApprox: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValueChecks != 1 || rep.Explains != 2*3+1 {
		t.Errorf("%d value checks and %d explains, want 1 and 7", rep.ValueChecks, rep.Explains)
	}
	if rep.Degraded == 0 {
		t.Error("starved server reported no degraded requests")
	}
}
