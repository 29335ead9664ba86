package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/promlint"
)

// TestRecorderConcurrentHammer drives every Recorder entry point from many
// goroutines at once (run under -race in CI) and then checks the aggregate
// invariants through the exposition: request and error totals add up in
// repro_requests_total, each route's histogram _count matches its request
// total, and every side counter saw each of its calls.
func TestRecorderConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		perG    = 500
	)
	r := NewRecorder()
	routes := []string{"/v1/explain", "/v1/update"}
	stages := []string{"compile", "shapley", "ground"}
	causes := []string{"mode", "node_budget", "deadline"}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				route := routes[(g+i)%len(routes)]
				d := time.Duration(1+(g*perG+i)%100) * time.Millisecond
				r.Observe(route, 200+(i%2)*229, d) // alternate 200 / 429
				r.ObserveStage(stages[i%len(stages)], d)
				switch i % 5 {
				case 0:
					r.Shed(route)
				case 1:
					r.Panicked(route)
				case 2:
					r.TimedOut(route)
				case 3:
					r.DegradedCause(route, causes[i%len(causes)])
				}
				if i%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(g)
	}
	wg.Wait()

	samples := scrape(t, r)
	const total = workers * perG
	if n := sum(t, samples, "repro_requests_total"); n != total {
		t.Fatalf("total count = %v, want %d", n, total)
	}
	if n := sum(t, samples, `repro_requests_total{code="429"}`); n != total/2 {
		t.Fatalf("error count = %v, want %d (every other request was a 429)", n, total/2)
	}
	if n := sum(t, samples, "repro_request_duration_seconds_count"); n != total {
		t.Fatalf("histogram count = %v, want %d", n, total)
	}
	for _, route := range routes {
		reqs := sum(t, samples, fmt.Sprintf(`repro_requests_total{route=%q}`, route))
		if n := sum(t, samples, fmt.Sprintf(`repro_request_duration_seconds_count{route=%q}`, route)); n != reqs {
			t.Errorf("route %s: histogram count %v, requests %v", route, n, reqs)
		}
	}
	for _, name := range []string{"repro_sheds_total", "repro_panics_total", "repro_timeouts_total", "repro_degraded_total"} {
		if n := sum(t, samples, name); n != total/5 {
			t.Errorf("%s = %v, want %d", name, n, total/5)
		}
	}
	for _, req := range []string{
		`repro_degraded_total{route="/v1/update",cause="node_budget"}`,
		`repro_stage_duration_seconds_bucket{stage="compile",le="+Inf"}`,
	} {
		if err := promlint.Require(samples, req); err != nil {
			t.Error(err)
		}
	}
}

// TestHistogramCumulative pins the bucket semantics the exposition relies
// on: every bucket at or above the observed value increments, +Inf counts
// everything, and sums accumulate.
func TestHistogramCumulative(t *testing.T) {
	var h histogram
	h.observe(0.003) // ≤ 0.005 and everything above
	h.observe(0.2)   // ≤ 0.25 and above
	h.observe(99)    // only +Inf
	prev := int64(0)
	for i := range DurationBuckets {
		if h.counts[i] < prev {
			t.Fatalf("bucket %d (le=%g) count %d below previous %d", i, DurationBuckets[i], h.counts[i], prev)
		}
		prev = h.counts[i]
	}
	if got := h.counts[len(DurationBuckets)]; got != 3 {
		t.Fatalf("+Inf bucket = %d, want 3", got)
	}
	if h.count != 3 {
		t.Fatalf("count = %d, want 3", h.count)
	}
	if h.sum < 99.2 || h.sum > 99.3 {
		t.Fatalf("sum = %v, want ≈99.203", h.sum)
	}
}
