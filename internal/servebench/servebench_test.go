package servebench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestRunInProcess exercises the full load generator against an in-process
// server: all three phases at two concurrency levels, head-to-head
// populated, pool counters collected, and every quiesced value
// cross-checked against the cold reference.
func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP load; skipped in -short mode")
	}
	rep, err := Run(context.Background(), Options{
		Clients:     []int{1, 3},
		Requests:    4,
		UpdateEvery: 2,
		PoolSize:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 phases per level.
	if len(rep.Levels) != 6 {
		t.Fatalf("%d levels, want 6: %+v", len(rep.Levels), rep.Levels)
	}
	for _, lv := range rep.Levels {
		if lv.Explains == 0 || lv.ThroughputRPS <= 0 || lv.Latency.P50Ms <= 0 {
			t.Errorf("degenerate level: %+v", lv)
		}
		if lv.Mode == "mixed-pooled" && lv.Updates == 0 {
			t.Errorf("mixed phase issued no updates: %+v", lv)
		}
	}
	if len(rep.HeadToHead) != 2 {
		t.Fatalf("%d head-to-head points, want 2", len(rep.HeadToHead))
	}
	for _, h := range rep.HeadToHead {
		if h.PooledP50Ms <= 0 || h.UnpooledP50Ms <= 0 || h.P50Speedup <= 0 {
			t.Errorf("degenerate head-to-head: %+v", h)
		}
	}
	if rep.ValueChecks != 4 {
		t.Errorf("value checks = %d, want 4 (2 per level)", rep.ValueChecks)
	}
	if rep.Pool.Opens < 1 || rep.Pool.Reuses < 1 {
		t.Errorf("pool counters: %+v", rep.Pool)
	}
	if rep.Pool.UpdateRequests < 1 || rep.Pool.UpdateBatches > rep.Pool.UpdateRequests {
		t.Errorf("batcher counters: %+v", rep.Pool)
	}
	if rep.Pool.CoalescedBatches > rep.Pool.UpdateBatches || rep.Pool.Capacity != 4 {
		t.Errorf("pool counters: %+v", rep.Pool)
	}
	if rep.Cache.Hits+rep.Cache.Misses == 0 || rep.Cache.Capacity <= 0 {
		t.Errorf("compile cache untouched: %+v", rep.Cache)
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
	err := readMetrics(context.Background(), &benchClient{hc: ts.Client()}, ts.URL, &rep)
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
	if o.Dataset != "flights" || o.Query == "" || len(o.Clients) != 3 || o.Requests != 8 || o.UpdateEvery != 4 {
		t.Errorf("defaults: %+v", o)
	}
	if _, err := Run(context.Background(), Options{Dataset: "tpch"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestRunBudgetedPhase drives the budgeted phase: with a budget_ms on every
// request, each response must be exact-within-budget or a marked
// approximation (validated per response), and the level records the mix.
func TestRunBudgetedPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP load; skipped in -short mode")
	}
	rep, err := Run(context.Background(), Options{
		Clients:     []int{2},
		Requests:    4,
		UpdateEvery: -1,
		PoolSize:    4,
		BudgetMs:    50,
		Repro:       repro.Options{Budget: repro.ExplainBudget{MinSamples: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var budgeted *Level
	for i := range rep.Levels {
		if rep.Levels[i].Mode == "budgeted-pooled" {
			budgeted = &rep.Levels[i]
		}
	}
	if budgeted == nil {
		t.Fatalf("no budgeted-pooled level in %+v", rep.Levels)
	}
	if budgeted.Explains != 8 {
		t.Errorf("budgeted explains = %d, want 8", budgeted.Explains)
	}
	if budgeted.ExactExplains+budgeted.ApproxExplains != budgeted.Explains {
		t.Errorf("mix %d exact + %d approx ≠ %d explains",
			budgeted.ExactExplains, budgeted.ApproxExplains, budgeted.Explains)
	}
	if budgeted.ApproxExplains > 0 && budgeted.FallbackLatency == nil {
		t.Error("approx explains recorded but no fallback latency summary")
	}
}

// TestRunStarvedServerAllowApprox is the degradation smoke in miniature: an
// in-process server with a starvation node budget must answer every phase
// with 200s, and with AllowApprox the quiesced cross-check accepts marked
// approximations (and only marked ones).
func TestRunStarvedServerAllowApprox(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP load; skipped in -short mode")
	}
	rep, err := Run(context.Background(), Options{
		Clients:     []int{2},
		Requests:    3,
		UpdateEvery: -1,
		PoolSize:    4,
		AllowApprox: true,
		Repro: repro.Options{
			Budget: repro.ExplainBudget{MaxNodes: 1, MinSamples: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValueChecks != 2 {
		t.Errorf("value checks = %d, want 2", rep.ValueChecks)
	}
	if rep.Degraded == 0 {
		t.Error("starved server reported no degraded requests")
	}
}
