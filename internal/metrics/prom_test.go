package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/promlint"
)

// scrape renders the recorder's exposition, validates it as CI's promcheck
// does, and returns its samples.
func scrape(t *testing.T, r *Recorder) []promlint.Sample {
	t.Helper()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if _, err := promlint.Validate(sb.String()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, sb.String())
	}
	samples, _, err := promlint.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// sum totals the samples matching req (see promlint.Sum), failing the test
// when none does.
func sum(t *testing.T, samples []promlint.Sample, req string) float64 {
	t.Helper()
	v, err := promlint.Sum(samples, req)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWritePrometheusValidates renders a populated recorder and runs the
// output through the exposition validator — the same check CI applies to a
// live /metrics scrape.
func TestWritePrometheusValidates(t *testing.T) {
	r := NewRecorder()
	r.Observe("/v1/explain", 200, 3*time.Millisecond)
	r.Observe("/v1/explain", 400, 40*time.Millisecond)
	r.Observe(`/weird"route\n`, 200, time.Millisecond) // label escaping
	r.ObserveStage("compile", 2*time.Millisecond)
	r.ObserveStage("shapley", 20*time.Second) // lands only in +Inf
	r.Shed("/v1/explain")
	r.DegradedCause("/v1/explain", "deadline")

	var sb strings.Builder
	r.WritePrometheus(&sb)
	text := sb.String()

	stats, err := promlint.Validate(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	if stats.Samples == 0 || stats.Families < 7 {
		t.Fatalf("suspiciously small exposition: %+v", stats)
	}

	samples, _, err := promlint.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, req := range []string{
		"repro_uptime_seconds",
		`repro_requests_total{route="/v1/explain",code="200"}`,
		`repro_requests_total{route="/v1/explain",code="400"}`,
		`repro_sheds_total{route="/v1/explain"}`,
		`repro_degraded_total{route="/v1/explain",cause="deadline"}`,
		`repro_request_duration_seconds_bucket{route="/v1/explain",le="+Inf"}`,
		`repro_stage_duration_seconds_count{stage="compile"}`,
		`repro_stage_duration_seconds_bucket{stage="shapley",le="+Inf"}`,
	} {
		if err := promlint.Require(samples, req); err != nil {
			t.Errorf("%v", err)
		}
	}

	// The escaped route must round-trip through parse.
	if err := promlint.Require(samples, "repro_requests_total"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.Labels["route"] == `/weird"route\n` {
			found = true
		}
	}
	if !found {
		t.Error("escaped route label did not round-trip")
	}

	// Deterministic output: two renders of the same recorder differ only in
	// the uptime gauge line.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	strip := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "repro_uptime_seconds ") {
				continue
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	if strip(text) != strip(sb2.String()) {
		t.Error("exposition output is not deterministic")
	}
}
