package promlint

import (
	"math"
	"strings"
	"testing"
)

const goodExposition = `# HELP repro_uptime_seconds Seconds since start.
# TYPE repro_uptime_seconds gauge
repro_uptime_seconds 12.5
# HELP repro_requests_total Completed requests.
# TYPE repro_requests_total counter
repro_requests_total{route="/v1/explain",code="200"} 3
repro_requests_total{route="/v1/explain",code="400"} 1
# HELP repro_request_duration_seconds Request latency.
# TYPE repro_request_duration_seconds histogram
repro_request_duration_seconds_bucket{route="/v1/explain",le="0.005"} 1
repro_request_duration_seconds_bucket{route="/v1/explain",le="0.1"} 3
repro_request_duration_seconds_bucket{route="/v1/explain",le="+Inf"} 4
repro_request_duration_seconds_sum{route="/v1/explain"} 0.42
repro_request_duration_seconds_count{route="/v1/explain"} 4
`

func TestParseGood(t *testing.T) {
	samples, stats, err := Parse(goodExposition)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if stats.Families != 3 {
		t.Fatalf("families = %d, want 3", stats.Families)
	}
	if stats.Samples != 8 {
		t.Fatalf("samples = %d, want 8", stats.Samples)
	}
	var inf *Sample
	for i := range samples {
		if samples[i].Name == "repro_request_duration_seconds_bucket" && samples[i].Labels["le"] == "+Inf" {
			inf = &samples[i]
		}
	}
	if inf == nil || inf.Value != 4 {
		t.Fatalf("missing or wrong +Inf bucket sample: %+v", inf)
	}
}

func TestValidateGood(t *testing.T) {
	if _, err := Validate(goodExposition); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseLabelEscapes(t *testing.T) {
	samples, _, err := Parse("# TYPE m counter\n" + `m{a="x\\y\"z\nw"} 1` + "\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := samples[0].Labels["a"]; got != "x\\y\"z\nw" {
		t.Fatalf("unescaped label = %q", got)
	}
}

func TestParseSpecialValues(t *testing.T) {
	samples, _, err := Parse("# TYPE m gauge\nm{k=\"inf\"} +Inf\nm{k=\"nan\"} NaN\nm{k=\"ts\"} 2 1700000000000\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !math.IsInf(samples[0].Value, 1) {
		t.Fatalf("+Inf parsed as %v", samples[0].Value)
	}
	if !math.IsNaN(samples[1].Value) {
		t.Fatalf("NaN parsed as %v", samples[1].Value)
	}
	if samples[2].Value != 2 {
		t.Fatalf("timestamped sample value = %v", samples[2].Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"just words\n",
		"1badname 3\n",
		`m{unclosed="x 3` + "\n",
		`m{a=unquoted} 3` + "\n",
		"m notanumber\n",
		"# TYPE m notatype\n",
		"# TYPE m\n",
	}
	for _, text := range bad {
		if _, _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", text)
		}
	}
}

func TestValidateMissingType(t *testing.T) {
	_, err := Validate("orphan_metric 3\n")
	if err == nil || !strings.Contains(err.Error(), "no preceding # TYPE") {
		t.Fatalf("want missing-TYPE error, got %v", err)
	}
}

func TestValidateNonCumulative(t *testing.T) {
	text := `# TYPE h histogram
h_bucket{le="0.1"} 5
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`
	if _, err := Validate(text); err == nil || !strings.Contains(err.Error(), "not cumulative") {
		t.Fatalf("want non-cumulative error, got %v", err)
	}
}

func TestValidateMissingInf(t *testing.T) {
	text := `# TYPE h histogram
h_bucket{le="0.1"} 5
h_sum 1
h_count 5
`
	if _, err := Validate(text); err == nil || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("want missing +Inf error, got %v", err)
	}
}

func TestValidateInfCountMismatch(t *testing.T) {
	text := `# TYPE h histogram
h_bucket{le="+Inf"} 5
h_sum 1
h_count 7
`
	if _, err := Validate(text); err == nil || !strings.Contains(err.Error(), "_count") {
		t.Fatalf("want +Inf/_count mismatch error, got %v", err)
	}
}

func TestValidateSeparatesSeriesByLabels(t *testing.T) {
	// Two series of the same family must not have their buckets merged:
	// each is cumulative on its own even though counts interleave.
	text := `# TYPE h histogram
h_bucket{route="a",le="0.1"} 9
h_bucket{route="a",le="+Inf"} 9
h_count{route="a"} 9
h_bucket{route="b",le="0.1"} 1
h_bucket{route="b",le="+Inf"} 2
h_count{route="b"} 2
`
	if _, err := Validate(text); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRequire(t *testing.T) {
	samples, _, err := Parse(goodExposition)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, req := range []string{
		"repro_uptime_seconds",
		`repro_requests_total{route="/v1/explain"}`,
		`repro_requests_total{route="/v1/explain",code="200"}`,
		`repro_request_duration_seconds_bucket{le="+Inf"}`,
	} {
		if err := Require(samples, req); err != nil {
			t.Errorf("Require(%q): %v", req, err)
		}
	}
	for _, req := range []string{
		"repro_missing_total",
		`repro_requests_total{route="/v1/update"}`,
		`repro_requests_total{route="/v1/explain",code="500"}`,
	} {
		if err := Require(samples, req); err == nil {
			t.Errorf("Require(%q) matched but should not", req)
		}
	}
	if err := Require(samples, `repro_requests_total{bad`); err == nil {
		t.Error("malformed requirement accepted")
	}
}

func TestSum(t *testing.T) {
	samples, stats, err := Parse(goodExposition)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for req, want := range map[string]float64{
		`repro_requests_total`:                                      4,
		`repro_requests_total{route="/v1/explain"}`:                 4,
		`repro_requests_total{route="/v1/explain",code="400"}`:      1,
		`repro_request_duration_seconds_count{route="/v1/explain"}`: 4,
	} {
		got, err := Sum(samples, req)
		if err != nil || got != want {
			t.Errorf("Sum(%q) = %v, %v; want %v", req, got, err, want)
		}
	}
	if _, err := Sum(samples, `repro_requests_total{code="500"}`); err == nil {
		t.Error("Sum over no matching sample succeeded")
	}
	if stats.Types["repro_requests_total"] != "counter" || stats.Types["repro_request_duration_seconds"] != "histogram" {
		t.Errorf("declared types = %v", stats.Types)
	}
}
