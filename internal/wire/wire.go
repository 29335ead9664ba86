// Package wire defines the explanation service's JSON wire protocol: the
// request and response bodies of shapleyd's HTTP API (internal/server) and
// the machine-readable output of `shapley -json`.
//
// Explain bodies are rendered by AppendExplainResponse, in one pass into a
// byte buffer, for the CLI. The server splices each tuple's AppendExplanation
// bytes, which a pooled session keeps between requests, into a fresh header
// and footer with AppendRenderedResponse; the bytes are the same, so a CLI
// run and a served response for the same database state are byte-diffable.
// The struct form
// — ExplainResponse with EncodeExplanations' tuples, through encoding/json
// with a two-space indent — is what clients decode into, and it is the
// reference the writer's tests check its bytes against.
//
// Values travel as plain JSON scalars: strings decode to db.String, numbers
// to db.Int when they are integral (no fraction, no exponent) and db.Float
// otherwise. Exact Shapley values are carried twice per fact — as the exact
// rational in big.Rat string form ("43/105") and as a float convenience —
// so clients can cross-check served values big.Rat-identically against a
// local computation.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/trace"
)

// TraceSpan is one node of a request's stage-trace tree: the span's name,
// start offset and duration in milliseconds, stage-specific attributes
// (clause/node counts, cache hit kind, compile decisions, degradation
// cause), and child spans. It aliases trace.SpanNode so the server can
// attach a snapshot without conversion.
type TraceSpan = trace.SpanNode

// ExplainRequest is the body of POST /v1/explain.
type ExplainRequest struct {
	// Dataset names a database registered with the server.
	Dataset string `json:"dataset"`
	// Query is the datalog-style UCQ text (see internal/query). The server
	// normalizes it by parse + re-render, so textual variants of one query
	// share a pooled session; a text the pool has seen finds its session
	// without a parse.
	Query string `json:"query"`
	// Top truncates each tuple's ranked fact list; 0 or negative returns
	// every fact.
	Top int `json:"top,omitempty"`
	// BudgetMs bounds this request's exact computation wall clock in
	// milliseconds; past it the answer degrades to sampled estimates with
	// confidence intervals instead of erroring. 0 defers to the server's
	// configured budget.
	BudgetMs float64 `json:"budget_ms,omitempty"`
	// Mode is "auto" (exact within budget, sampled past it), "exact"
	// (never sample), or "approximate" (sample immediately); empty defers
	// to the server.
	Mode string `json:"mode,omitempty"`
	// MinSamples floors the sampler's permutation count; 0 defers to the
	// server.
	MinSamples int `json:"min_samples,omitempty"`
	// Seed perturbs the deterministic sampling seed (0 = the canonical
	// lineage-derived seed).
	Seed int64 `json:"seed,omitempty"`
	// Trace asks the server to return the request's stage-trace span tree
	// in the response's "trace" field.
	Trace bool `json:"trace,omitempty"`
}

// FactScore is one ranked fact of a tuple's explanation.
type FactScore struct {
	// ID is the fact's provenance identity in the server's database.
	ID int64 `json:"id"`
	// Relation and Tuple identify the fact by content (stable across
	// processes, unlike IDs).
	Relation string `json:"relation"`
	Tuple    []any  `json:"tuple"`
	// ValueRat is the exact Shapley value in big.Rat string form; empty
	// when the explanation fell back to the CNF Proxy.
	ValueRat string `json:"value_rat,omitempty"`
	// Score is the float form of the fact's contribution (exact value,
	// sampled estimate, or proxy score, per the tuple's method).
	Score float64 `json:"score"`
	// CILow and CIHigh bound the 95% confidence interval around Score for
	// approximately answered tuples; absent (nil) on exact and proxy
	// answers, so those responses are byte-identical to the pre-anytime
	// protocol.
	CILow  *float64 `json:"ci_low,omitempty"`
	CIHigh *float64 `json:"ci_high,omitempty"`
}

// TupleExplanation is the wire form of one explained output tuple.
type TupleExplanation struct {
	// Tuple is the output tuple (empty for a Boolean query's yes-answer).
	Tuple []any `json:"tuple"`
	// Method is "exact", "approximate", or "cnf-proxy".
	Method string `json:"method"`
	// Approximate marks a tuple answered by the anytime sampling tier: its
	// fact scores are Monte Carlo estimates carrying ci_low/ci_high bounds,
	// and Samples says how many permutations were spent. Both fields are
	// absent on exact answers.
	Approximate bool `json:"approximate,omitempty"`
	Samples     int  `json:"samples,omitempty"`
	// DegradedCause says why an approximate tuple degraded: "mode" (the
	// request asked for sampling), "node_budget", "deadline", or "error";
	// absent on exact and proxy answers.
	DegradedCause string `json:"degraded_cause,omitempty"`
	// NumFacts is the number of distinct endogenous facts in the lineage.
	NumFacts int `json:"num_facts"`
	// ElapsedMs is the wall-clock cost of explaining this tuple (for cached
	// session tuples: of the original computation).
	ElapsedMs float64 `json:"elapsed_ms"`
	// Facts lists the (possibly truncated) ranking by decreasing
	// contribution.
	Facts []FactScore `json:"facts"`
}

// ExplainResponse is the body answering POST /v1/explain and the output of
// `shapley -json`.
type ExplainResponse struct {
	Dataset string `json:"dataset,omitempty"`
	// Query is the normalized query text.
	Query string `json:"query"`
	// Pooled is true on every shapleyd answer, since its session pool
	// serves every explain, and false in `shapley -json` output.
	Pooled bool `json:"pooled"`
	// ElapsedMs is the server-side (or CLI-side) wall clock for the whole
	// request.
	ElapsedMs float64            `json:"elapsed_ms"`
	Tuples    []TupleExplanation `json:"tuples"`
	// RequestID echoes the server-assigned request ID (also sent as the
	// X-Request-Id header), correlating the response with server logs and
	// the slow-explain log. Absent on CLI output.
	RequestID string `json:"request_id,omitempty"`
	// Trace is the request's stage-trace span tree, present when the request
	// set "trace": true.
	Trace *TraceSpan `json:"trace,omitempty"`
}

// InsertSpec describes one fact insertion in an update batch.
type InsertSpec struct {
	Relation   string            `json:"relation"`
	Endogenous bool              `json:"endogenous"`
	Values     []json.RawMessage `json:"values"`
}

// DeleteSpec names one fact to delete: by ID, or — when ID is zero — by
// content (relation + values), resolved against the current database.
type DeleteSpec struct {
	ID       int64             `json:"id,omitempty"`
	Relation string            `json:"relation,omitempty"`
	Values   []json.RawMessage `json:"values,omitempty"`
}

// UpdateRequest is the body of POST /v1/update: a batch of insertions and
// deletions applied in order (inserts first, then deletes) to the dataset.
// Every pooled session over the dataset absorbs the batch incrementally at
// its next explain.
type UpdateRequest struct {
	Dataset string `json:"dataset"`
	// Query is accepted for compatibility and still parsed, so a malformed
	// one is a 400, but it routes nothing: no session is opened for it,
	// and the batch applies to the dataset like any other.
	Query   string       `json:"query,omitempty"`
	Inserts []InsertSpec `json:"inserts,omitempty"`
	Deletes []DeleteSpec `json:"deletes,omitempty"`
}

// UpdateResponse reports an applied update batch.
type UpdateResponse struct {
	// InsertedIDs are the new facts' IDs, aligned with the request's
	// Inserts; deletes by content report the resolved IDs in DeletedIDs.
	InsertedIDs []int64 `json:"inserted_ids,omitempty"`
	DeletedIDs  []int64 `json:"deleted_ids,omitempty"`
	// Pooled echoes whether the request named a query. Pooled sessions
	// absorb every update incrementally either way.
	Pooled bool `json:"pooled"`
	// BatchRequests is how many HTTP update requests the database write
	// covering this one applied: always 1, as each request is applied on
	// its own.
	BatchRequests int `json:"batch_requests,omitempty"`
	// RequestID echoes the server-assigned request ID (also the
	// X-Request-Id header).
	RequestID string `json:"request_id,omitempty"`
}

// SlowEntry is one request in the server's slow-explain ring, served by
// GET /v1/debug/slow: the request's identity, when it finished, how long it
// took, and its full stage trace.
type SlowEntry struct {
	RequestID string  `json:"request_id"`
	Dataset   string  `json:"dataset"`
	Query     string  `json:"query"`
	Time      string  `json:"time"` // RFC 3339, when the request completed
	ElapsedMs float64 `json:"elapsed_ms"`
	// Trace is the request's span tree (always captured for slow requests,
	// whether or not the client asked for it).
	Trace *TraceSpan `json:"trace,omitempty"`
}

// SlowResponse is the body of GET /v1/debug/slow: the configured threshold
// and the retained slow requests, most recent last.
type SlowResponse struct {
	ThresholdMs float64     `json:"threshold_ms"`
	Entries     []SlowEntry `json:"entries"`
}

// PoolStats is the session pool's counter snapshot. shapleyd serves it on
// GET /metrics as the repro_pool_* series, and the serve benchmark reads
// it back from there.
type PoolStats struct {
	// Opens counts sessions opened (cold grounding); Reuses counts requests
	// served by an already-warm pooled session; Evictions counts sessions
	// closed by the LRU capacity bound.
	Opens     int64 `json:"opens"`
	Reuses    int64 `json:"reuses"`
	Evictions int64 `json:"evictions"`
	// Sessions and Capacity describe current occupancy. Updates do not
	// pass through the pool, so it counts none.
	Sessions int `json:"sessions"`
	Capacity int `json:"capacity"`
}

// EncodeValue renders a database value as a JSON-encodable scalar. Floats
// always carry a fractional or exponent marker, so an integral float
// round-trips back to db.Float rather than db.Int: a value keeps its kind
// on the wire, although an integral float joins, filters and keys as the
// int it equals.
func EncodeValue(v repro.Value) any {
	switch v.Kind() {
	case db.KindInt:
		return v.AsInt()
	case db.KindFloat:
		return json.Number(appendFloatValue(nil, v.AsFloat()))
	default:
		return v.AsString()
	}
}

// EncodeTuple renders a tuple as a slice of JSON-encodable scalars.
func EncodeTuple(t repro.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = EncodeValue(v)
	}
	return out
}

// DecodeValue parses one wire value: a JSON string becomes db.String, an
// integral number db.Int, any other number db.Float.
func DecodeValue(raw json.RawMessage) (repro.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return repro.Value{}, fmt.Errorf("wire: bad value %s: %w", raw, err)
	}
	switch t := v.(type) {
	case string:
		return repro.String(t), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(t), 10, 64); err == nil {
			return repro.Int(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return repro.Value{}, fmt.Errorf("wire: bad number %s: %w", t, err)
		}
		return repro.Float(f), nil
	default:
		return repro.Value{}, fmt.Errorf("wire: value %s must be a string or number", raw)
	}
}

// DecodeValues parses a wire value list.
func DecodeValues(raws []json.RawMessage) ([]repro.Value, error) {
	out := make([]repro.Value, len(raws))
	for i, raw := range raws {
		v, err := DecodeValue(raw)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// EncodeExplanations renders pipeline results in the wire struct form. Fact
// labels are resolved against d (facts deleted since the explanation was
// computed keep their ID with empty content); top ≤ 0 keeps every ranked
// fact. Encoded with encoding/json under ExplainResponse, it gives the bytes
// AppendExplainResponse writes directly; the server and the CLI use the
// writer, and this form remains for callers that want the values and as the
// writer's reference.
func EncodeExplanations(d *repro.Database, es []repro.TupleExplanation, top int) []TupleExplanation {
	out := make([]TupleExplanation, len(es))
	for i := range es {
		e := &es[i]
		ranking := e.Ranking
		if top > 0 && top < len(ranking) {
			ranking = ranking[:top]
		}
		facts := make([]FactScore, len(ranking))
		for j, id := range ranking {
			fs := FactScore{ID: int64(id), Score: e.Score(id)}
			switch e.Method {
			case repro.MethodExact:
				fs.ValueRat = e.Values[id].RatString()
			case repro.MethodApprox:
				est := e.Approx[id]
				lo, hi := est.CILow, est.CIHigh
				fs.CILow, fs.CIHigh = &lo, &hi
			}
			if f := d.Fact(id); f != nil {
				fs.Relation = f.Relation
				fs.Tuple = EncodeTuple(f.Tuple)
			}
			facts[j] = fs
		}
		out[i] = TupleExplanation{
			Tuple:         EncodeTuple(e.Tuple),
			Method:        e.Method.String(),
			Approximate:   e.Method == repro.MethodApprox,
			Samples:       e.Samples,
			DegradedCause: e.DegradedCause,
			NumFacts:      e.NumFacts,
			ElapsedMs:     float64(e.Elapsed) / float64(time.Millisecond),
			Facts:         facts,
		}
	}
	return out
}
