package metrics

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
)

func approxEq(t *testing.T, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestNDCGPerfect(t *testing.T) {
	truth := map[db.FactID]float64{1: 3, 2: 2, 3: 1}
	approxEq(t, NDCG([]db.FactID{1, 2, 3}, truth), 1, "NDCG perfect")
}

func TestNDCGReversed(t *testing.T) {
	truth := map[db.FactID]float64{1: 3, 2: 2, 3: 1}
	got := NDCG([]db.FactID{3, 2, 1}, truth)
	if got >= 1 || got <= 0 {
		t.Errorf("NDCG reversed = %v, want strictly between 0 and 1", got)
	}
	// DCG = 1 + 2/log2(3) + 3/2; IDCG = 3 + 2/log2(3) + 1/2.
	want := (1 + 2/math.Log2(3) + 1.5) / (3 + 2/math.Log2(3) + 0.5)
	approxEq(t, got, want, "NDCG reversed")
}

func TestNDCGDegenerate(t *testing.T) {
	truth := map[db.FactID]float64{1: 0, 2: 0}
	approxEq(t, NDCG([]db.FactID{2, 1}, truth), 1, "NDCG all-zero truth")
}

func TestNDCGNegativeShift(t *testing.T) {
	// Negative relevances are shifted; ordering quality still measured.
	truth := map[db.FactID]float64{1: -1, 2: -3}
	approxEq(t, NDCG([]db.FactID{1, 2}, truth), 1, "NDCG negative perfect")
	if NDCG([]db.FactID{2, 1}, truth) >= 1 {
		t.Error("NDCG should penalize wrong order with negative scores")
	}
}

func TestNDCGAtTruncation(t *testing.T) {
	truth := map[db.FactID]float64{1: 5, 2: 4, 3: 3, 4: 2}
	// Correct top-1 gives nDCG@1 = 1 even if the tail is reversed.
	approxEq(t, NDCGAt([]db.FactID{1, 4, 3, 2}, truth, 1), 1, "nDCG@1")
	if NDCGAt([]db.FactID{4, 1, 2, 3}, truth, 1) >= 1 {
		t.Error("nDCG@1 with wrong leader should be < 1")
	}
}

func TestPrecisionAt(t *testing.T) {
	truth := map[db.FactID]float64{1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
	pred := []db.FactID{2, 1, 5, 4, 3}
	approxEq(t, PrecisionAt(pred, truth, 2), 1, "P@2")     // {2,1} = {1,2}
	approxEq(t, PrecisionAt(pred, truth, 3), 2.0/3, "P@3") // {2,1,5} ∩ {1,2,3} = 2
	approxEq(t, PrecisionAt(pred, truth, 5), 1, "P@5")
	approxEq(t, PrecisionAt(nil, truth, 0), 1, "P@0 degenerate")
}

func TestPrecisionAtTieBreaking(t *testing.T) {
	// Scores tied: ideal top-1 is the smaller fact ID.
	truth := map[db.FactID]float64{7: 1, 3: 1}
	approxEq(t, PrecisionAt([]db.FactID{3, 7}, truth, 1), 1, "P@1 tie")
	approxEq(t, PrecisionAt([]db.FactID{7, 3}, truth, 1), 0, "P@1 tie wrong")
}

func TestL1L2(t *testing.T) {
	exact := map[db.FactID]float64{1: 1, 2: 0}
	approx := map[db.FactID]float64{1: 0.5, 2: 0.5}
	approxEq(t, L1(approx, exact), 0.5, "L1")
	approxEq(t, L2(approx, exact), 0.25, "L2")
	approxEq(t, L1(nil, nil), 0, "L1 empty")
}

func TestSummarize(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	s := Summarize(xs)
	approxEq(t, s.Mean, 2.5, "mean")
	approxEq(t, s.P25, 1, "p25")
	approxEq(t, s.P50, 2, "p50")
	approxEq(t, s.P75, 3, "p75")
	approxEq(t, s.P99, 4, "p99")
	empty := Summarize(nil)
	if empty.Mean != 0 || empty.P99 != 0 {
		t.Errorf("Summarize(nil) = %+v, want zeros", empty)
	}
}

func TestMedianMean(t *testing.T) {
	approxEq(t, Median([]float64{3, 1, 2}), 2, "median odd")
	approxEq(t, Mean([]float64{1, 2, 3}), 2, "mean")
	approxEq(t, Median(nil), 0, "median empty")
	approxEq(t, Mean(nil), 0, "mean empty")
}

func TestRankByScore(t *testing.T) {
	scores := map[db.FactID]float64{5: 0.1, 2: 0.9, 9: 0.9}
	r := RankByScore(scores)
	if r[0] != 2 || r[1] != 9 || r[2] != 5 {
		t.Errorf("RankByScore = %v, want [2 9 5]", r)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Observe("/v1/explain", 200, 10*time.Millisecond)
	r.Observe("/v1/explain", 500, 20*time.Millisecond)
	r.Observe("/v1/update", 200, 1*time.Millisecond)
	for i := 0; i < 6; i++ {
		r.Observe("/v1/explain", 200, time.Duration(i+1)*100*time.Millisecond)
	}
	samples := scrape(t, r)
	for req, want := range map[string]float64{
		`repro_requests_total{route="/v1/explain"}`:                             8,
		`repro_requests_total{route="/v1/explain",code="500"}`:                  1,
		`repro_requests_total{route="/v1/update",code="200"}`:                   1,
		`repro_request_duration_seconds_count{route="/v1/explain"}`:             8,
		`repro_request_duration_seconds_bucket{route="/v1/explain",le="0.025"}`: 2,
		`repro_request_duration_seconds_bucket{route="/v1/explain",le="0.5"}`:   7,
		`repro_request_duration_seconds_bucket{route="/v1/explain",le="+Inf"}`:  8,
		`repro_request_duration_seconds_count{route="/v1/update"}`:              1,
		`repro_request_duration_seconds_bucket{route="/v1/update",le="0.0005"}`: 0,
		`repro_request_duration_seconds_bucket{route="/v1/update",le="0.001"}`:  1,
	} {
		approxEq(t, sum(t, samples, req), want, req)
	}
	approxEq(t, sum(t, samples, `repro_request_duration_seconds_sum{route="/v1/explain"}`), 2.13, "explain latency sum")
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Observe("/x", 200, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := sum(t, scrape(t, r), `repro_requests_total{route="/x"}`); n != 800 {
		t.Errorf("count %v, want 800", n)
	}
}
