// Package promlint parses and validates the Prometheus text exposition
// format (version 0.0.4) without external dependencies. It backs
// cmd/promcheck (the CI gate on /metrics) and the server's exposition
// tests: every line must parse, every sample must belong to a family with a
// preceding # TYPE header, and histograms must be internally consistent
// (cumulative buckets, +Inf present and equal to _count).
package promlint

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed metric sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Stats summarizes a validated exposition.
type Stats struct {
	Families int
	Samples  int
	// Types maps each family a # TYPE header declares to its type, so a
	// reader can tell a declared family that has no samples yet from a
	// missing one.
	Types map[string]string
}

// baseFamily strips the histogram/summary sample suffixes off a sample name.
func baseFamily(name string, typ map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if t := typ[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// Parse parses an exposition body into samples, returning an error for the
// first malformed line. Comment lines other than # HELP / # TYPE are
// ignored, per the format.
func Parse(text string) ([]Sample, Stats, error) {
	samples, _, stats, err := parse(text)
	return samples, stats, err
}

func parse(text string) ([]Sample, map[string]string, Stats, error) {
	var samples []Sample
	types := make(map[string]string)
	families := make(map[string]bool)
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 3 || !validName(fields[2]) {
					return nil, nil, Stats{}, fmt.Errorf("line %d: malformed %s comment: %q", lineNo, fields[1], line)
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 {
						return nil, nil, Stats{}, fmt.Errorf("line %d: TYPE wants exactly a name and a type: %q", lineNo, line)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return nil, nil, Stats{}, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
					}
					types[fields[2]] = fields[3]
					families[fields[2]] = true
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, nil, Stats{}, fmt.Errorf("line %d: %v", lineNo, err)
		}
		families[baseFamily(s.Name, types)] = true
		samples = append(samples, s)
	}
	return samples, types, Stats{Families: len(families), Samples: len(samples), Types: types}, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseSample parses `name{label="value",...} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		nameEnd = sp
	} else {
		return s, fmt.Errorf("no value on sample line %q", line)
	}
	s.Name = rest[:nameEnd]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		var err error
		rest, err = parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want a value and optional timestamp after %q, got %q", s.Name, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes a `{...}` label block, returning the remainder.
func parseLabels(rest string, into map[string]string) (string, error) {
	if rest == "" || rest[0] != '{' {
		return "", fmt.Errorf("expected label block, got %q", rest)
	}
	i := 1
	for {
		for i < len(rest) && (rest[i] == ' ' || rest[i] == ',') {
			i++
		}
		if i < len(rest) && rest[i] == '}' {
			return rest[i+1:], nil
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return "", fmt.Errorf("unterminated label block in %q", rest)
		}
		name := rest[i : i+eq]
		if !validName(name) {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return "", fmt.Errorf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return "", fmt.Errorf("unterminated label value for %q", name)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return "", fmt.Errorf("dangling escape in label %q", name)
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", fmt.Errorf("unknown escape \\%c in label %q", rest[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		into[name] = val.String()
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", s)
	}
	return v, nil
}

// Validate parses the exposition and checks structural invariants:
//
//   - every line parses;
//   - every sample's family has a preceding # TYPE header;
//   - histogram buckets are cumulative in le order, carry a +Inf bucket,
//     and the +Inf count equals the series' _count sample.
func Validate(text string) (Stats, error) {
	samples, types, stats, err := parse(text)
	if err != nil {
		return stats, err
	}
	// Group histogram series by family + non-le labels.
	type series struct {
		buckets map[float64]float64 // le -> cumulative count
		count   float64
		hasCnt  bool
	}
	hists := make(map[string]*series)
	for _, s := range samples {
		base := baseFamily(s.Name, types)
		if _, ok := types[base]; !ok {
			return stats, fmt.Errorf("sample %s has no preceding # TYPE header", s.Name)
		}
		if types[base] != "histogram" {
			continue
		}
		key := base + "|" + labelKey(s.Labels)
		h := hists[key]
		if h == nil {
			h = &series{buckets: make(map[float64]float64)}
			hists[key] = h
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, ok := s.Labels["le"]
			if !ok {
				return stats, fmt.Errorf("%s bucket sample missing le label", s.Name)
			}
			bound, err := parseValue(le)
			if err != nil {
				return stats, fmt.Errorf("%s: bad le %q", s.Name, le)
			}
			h.buckets[bound] = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			h.count = s.Value
			h.hasCnt = true
		}
	}
	for key, h := range hists {
		if len(h.buckets) == 0 {
			continue
		}
		bounds := make([]float64, 0, len(h.buckets))
		for b := range h.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		prev := math.Inf(-1)
		prevCount := -1.0
		for _, b := range bounds {
			if h.buckets[b] < prevCount {
				return stats, fmt.Errorf("histogram %s: bucket le=%g count %g below le=%g count %g (not cumulative)",
					key, b, h.buckets[b], prev, prevCount)
			}
			prev, prevCount = b, h.buckets[b]
		}
		inf, ok := h.buckets[math.Inf(1)]
		if !ok {
			return stats, fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		if h.hasCnt && inf != h.count {
			return stats, fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", key, inf, h.count)
		}
	}
	return stats, nil
}

// labelKey renders labels minus le, sorted, for series grouping.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// Require checks that at least one sample matches the requirement, written
// as `name` or `name{label="value",...}`: the name must match exactly and
// the given labels must be a subset of the sample's.
func Require(samples []Sample, req string) error {
	_, err := Sum(samples, req)
	return err
}

// Sum totals the values of the samples matching req, written and matched
// as for Require, so labels that req leaves out are summed over. Like
// Require, it fails when no sample matches.
func Sum(samples []Sample, req string) (float64, error) {
	name := req
	want := map[string]string{}
	if i := strings.IndexByte(req, '{'); i >= 0 {
		name = req[:i]
		rest, err := parseLabels(req[i:], want)
		if err != nil {
			return 0, fmt.Errorf("bad requirement %q: %v", req, err)
		}
		if strings.TrimSpace(rest) != "" {
			return 0, fmt.Errorf("bad requirement %q: trailing %q", req, rest)
		}
	}
	total, matched := 0.0, false
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.Value
			matched = true
		}
	}
	if !matched {
		return 0, fmt.Errorf("required series %s not found", req)
	}
	return total, nil
}
