package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4) — no
// external dependencies, just the subset of the format the service needs:
// counters, gauges, and cumulative histograms with HELP/TYPE headers and
// escaped label values.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// DurationBuckets are the cumulative histogram bounds (seconds) shared by
// the request and stage latency histograms: half a millisecond to ten
// seconds, roughly logarithmic, plus the implicit +Inf bucket.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bound cumulative histogram over DurationBuckets.
// Guarded by the owning Recorder's mutex; the zero value is ready to use.
type histogram struct {
	counts [len15]int64 // counts[i] = observations ≤ DurationBuckets[i]; last = +Inf
	sum    float64
	count  int64
}

// len15 is len(DurationBuckets)+1; Go array lengths must be constants.
const len15 = 15

func (h *histogram) observe(seconds float64) {
	for i, bound := range DurationBuckets {
		if seconds <= bound {
			h.counts[i]++
		}
	}
	h.counts[len(DurationBuckets)]++
	h.sum += seconds
	h.count++
}

// Label is one name="value" pair of a sample.
type Label struct{ Name, Value string }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value; +Inf and integers round-trip through
// the standard parsers.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteHeader writes one family's # HELP and # TYPE lines.
func WriteHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteSample writes one sample line with optional labels.
func WriteSample(w io.Writer, name string, labels []Label, value float64) {
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(value))
		return
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, strings.Join(parts, ","), formatValue(value))
}

// WriteGauge writes a complete single-sample gauge family.
func WriteGauge(w io.Writer, name, help string, labels []Label, value float64) {
	WriteHeader(w, name, "gauge", help)
	WriteSample(w, name, labels, value)
}

// writeHistogram writes one histogram's _bucket/_sum/_count samples under
// the family name, with base labels attached to every sample.
func writeHistogram(w io.Writer, name string, base []Label, h *histogram) {
	for i, bound := range DurationBuckets {
		WriteSample(w, name+"_bucket", append(append([]Label{}, base...),
			Label{"le", formatValue(bound)}), float64(h.counts[i]))
	}
	WriteSample(w, name+"_bucket", append(append([]Label{}, base...),
		Label{"le", "+Inf"}), float64(h.counts[len(DurationBuckets)]))
	WriteSample(w, name+"_sum", base, h.sum)
	WriteSample(w, name+"_count", base, float64(h.count))
}

// WritePrometheus renders the recorder's counters and histograms in the
// Prometheus text exposition format: per-route request counts by status
// code, shed/panic/timeout counters, degraded requests by cause,
// cumulative request-latency histograms, per-stage pipeline histograms,
// and the process uptime. Callers append process-level series (pool and
// cache counters) after it; every family name is prefixed "repro_".
func (r *Recorder) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()

	WriteGauge(w, "repro_uptime_seconds", "Seconds since the recorder started.",
		nil, time.Since(r.start).Seconds())

	routes := make([]string, 0, len(r.routes))
	for route := range r.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)

	WriteHeader(w, "repro_requests_total", "counter", "Completed requests by route and HTTP status code.")
	for _, route := range routes {
		rec := r.routes[route]
		codes := make([]int, 0, len(rec.codes))
		for code := range rec.codes {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			WriteSample(w, "repro_requests_total",
				[]Label{{"route", route}, {"code", strconv.Itoa(code)}},
				float64(rec.codes[code]))
		}
	}

	counter := func(name, help string, get func(*routeRecord) int64) {
		WriteHeader(w, name, "counter", help)
		for _, route := range routes {
			WriteSample(w, name, []Label{{"route", route}}, float64(get(r.routes[route])))
		}
	}
	counter("repro_sheds_total", "Requests refused by admission control (429).",
		func(rec *routeRecord) int64 { return rec.sheds })
	counter("repro_panics_total", "Handler panics recovered into 500s.",
		func(rec *routeRecord) int64 { return rec.panics })
	counter("repro_timeouts_total", "Requests cut off by the per-request deadline (504).",
		func(rec *routeRecord) int64 { return rec.timeout })

	WriteHeader(w, "repro_degraded_total", "counter", "Requests answered approximately, by route and budget-degradation cause.")
	for _, route := range routes {
		rec := r.routes[route]
		causes := make([]string, 0, len(rec.causes))
		for cause := range rec.causes {
			causes = append(causes, cause)
		}
		sort.Strings(causes)
		for _, cause := range causes {
			WriteSample(w, "repro_degraded_total",
				[]Label{{"route", route}, {"cause", cause}},
				float64(rec.causes[cause]))
		}
	}

	WriteHeader(w, "repro_request_duration_seconds", "histogram", "Request latency by route.")
	for _, route := range routes {
		writeHistogram(w, "repro_request_duration_seconds",
			[]Label{{"route", route}}, &r.routes[route].hist)
	}

	stages := make([]string, 0, len(r.stages))
	for stage := range r.stages {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	WriteHeader(w, "repro_stage_duration_seconds", "histogram", "Pipeline stage wall time by stage (from trace spans).")
	for _, stage := range stages {
		writeHistogram(w, "repro_stage_duration_seconds",
			[]Label{{"stage", stage}}, r.stages[stage])
	}
}
