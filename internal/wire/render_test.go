package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/flights"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// encodeReference renders an explain body in the struct form: hdr with
// EncodeExplanations' tuples, through encoding/json with a two-space
// indent. AppendExplainResponse must write the same bytes.
func encodeReference(d *repro.Database, hdr ExplainResponse, es []repro.TupleExplanation, top int) ([]byte, error) {
	hdr.Tuples = EncodeExplanations(d, es, top)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(hdr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkSameBytes fails unless AppendExplainResponse appends to a non-empty
// buffer exactly the reference's bytes, or both fail and the writer leaves
// the buffer as it was.
func checkSameBytes(t *testing.T, d *repro.Database, hdr ExplainResponse, es []repro.TupleExplanation, top int) {
	t.Helper()
	want, werr := encodeReference(d, hdr, es, top)
	const prefix = "prefix"
	got, gerr := AppendExplainResponse([]byte(prefix), d, &hdr, es, top)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil {
			t.Fatalf("top=%d: writer error %v, reference error %v", top, gerr, werr)
		}
		if string(got) != prefix {
			t.Fatalf("top=%d: failed writer extended the buffer to %q", top, got)
		}
		return
	}
	if !strings.HasPrefix(string(got), prefix) {
		t.Fatalf("top=%d: writer dropped the buffer's contents: %.40q", top, got)
	}
	if g := got[len(prefix):]; !bytes.Equal(g, want) {
		gl, wl := strings.Split(string(g), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				t.Fatalf("top=%d: line %d differs from encoding/json:\n got: %q\nwant: %q", top, i+1, a, b)
			}
		}
		t.Fatalf("top=%d: bytes differ from encoding/json", top)
	}
}

// servedAnswers explains serve-mixed's four TPC-H queries at its scale (4)
// once per test binary, under a trace root so a real span tree with its
// attributes can ride along.
var servedAnswers = sync.OnceValues(func() (*servedSet, error) {
	s := &servedSet{d: tpch.Generate(tpch.DefaultConfig().Scaled(4))}
	byName := make(map[string]*repro.Query)
	for _, bq := range tpch.Queries() {
		byName[bq.Name] = bq.Q
	}
	for _, name := range []string{"q3", "q10", "q11", "q18"} {
		q := byName[name]
		ctx, root := trace.NewRoot(context.Background(), "explain", nil)
		es, err := repro.Explain(ctx, s.d, q, repro.Options{CacheSize: -1})
		root.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s.queries = append(s.queries, q.String())
		s.es = append(s.es, es)
		s.traces = append(s.traces, root.Snapshot())
	}
	return s, nil
})

type servedSet struct {
	d       *repro.Database
	queries []string
	es      [][]repro.TupleExplanation
	traces  []*TraceSpan
}

// TestExplainResponseMatchesEncoder pins AppendExplainResponse to the
// struct form byte for byte on fixed inputs: serve-mixed's four TPC-H
// answers (their query texts hold < and >) at several tops, with and
// without a trace and the server's header fields; the flights example
// answered exactly, by sampling and by CNF Proxy, before and after its top
// fact is deleted; and the fuzz target's seed inputs.
func TestExplainResponseMatchesEncoder(t *testing.T) {
	s, err := servedAnswers()
	if err != nil {
		t.Fatal(err)
	}
	for i, es := range s.es {
		for _, top := range []int{0, 1, 10} {
			hdr := ExplainResponse{Dataset: "tpch", Query: s.queries[i], Pooled: true, ElapsedMs: 0.8125, RequestID: "req-000001"}
			checkSameBytes(t, s.d, hdr, es, top)
			hdr.Trace = s.traces[i]
			checkSameBytes(t, s.d, hdr, es, top)
			checkSameBytes(t, s.d, ExplainResponse{Query: s.queries[i], ElapsedMs: 12.5e-7}, es, top)
		}
	}

	for _, m := range []struct {
		name string
		opts repro.Options
	}{
		{"exact", repro.Options{}},
		{"approximate", repro.Options{Budget: repro.ExplainBudget{Mode: repro.ModeApproximate, MinSamples: 128}}},
		{"cnf-proxy", repro.Options{MaxNodes: 1}},
	} {
		d, _ := flights.Build()
		es, err := repro.Explain(context.Background(), d, flights.Query(), m.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := es[0].Method.String(); got != m.name {
			t.Fatalf("flights answered by %s, want %s", got, m.name)
		}
		hdr := ExplainResponse{Dataset: "flights", Query: flights.Query().String(), Pooled: true, ElapsedMs: 3}
		for _, top := range []int{0, 2} {
			checkSameBytes(t, d, hdr, es, top)
		}
		if err := d.Delete(es[0].Ranking[0]); err != nil {
			t.Fatal(err)
		}
		checkSameBytes(t, d, hdr, es, 0)
	}

	for _, in := range fuzzSeeds() {
		d, hdr, es, top := in.build(t)
		checkSameBytes(t, d, hdr, es, top)
	}
}

// fuzzInput is one input of FuzzExplainResponse.
type fuzzInput struct {
	rel, str  string
	n         int64
	x         float64
	num, den  int64
	score, ms float64
	top       int8
	flags     uint8
}

func fuzzSeeds() []fuzzInput {
	return []fuzzInput{
		{"R", "a<b>&c", 42, 2.5, 43, 105, 0.4095, 1.25, 0, 0xff},
		{"Flights", "JFK\u2028\u2029\"\\/", math.MaxInt64, 1e21, -1, 3, 1e-7, 0, 2, 0x01},
		{"q<>", "\x00\x01\b\f\n\r\t\x1f\x7f", math.MinInt64, -1e-7, math.MinInt64, -1, -0.0, 1e300, -1, 0x16},
		{"\xff\xfe", "bad\xc3(utf8\xed\xa0\x80", 0, 2, 0, 7, 5e-324, 2.5e-6, 1, 0x08},
		{"", "", -7, math.MaxFloat64, 1 << 53, 1<<53 + 1, 123456789e15, 1e21, 3, 0x40},
		{"T", "x", 5, 1, 1, 1, 1, 1, 0, 0x20},
		{"S", "\u00e9\u65e5\U0001F600", 1, math.NaN(), 1, 2, 0.5, 0.5, 0, 0x03},
		{"S", "inf", 1, 0.5, 1, 2, math.Inf(1), 0.5, 0, 0x03},
	}
}

// build turns a fuzz input into a database and explanations of every method
// over it. The database holds a fact with an int, a float and a string
// column, a second with extreme values, a fact of an arity-0 relation and a
// deleted fact; every explanation ranks all four. flags pick the header
// fields, the trace, the ranking's order and which methods are present.
func (in fuzzInput) build(t *testing.T) (*repro.Database, ExplainResponse, []repro.TupleExplanation, int) {
	d := db.New()
	d.CreateRelation(in.rel, "a", "b", "c")
	d.CreateRelation(in.rel + "0")
	x := in.x
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 1.5
	}
	must := func(f *db.Fact, err error) *db.Fact {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := must(d.Insert(in.rel, true, db.Int(in.n), db.Float(x), db.String(in.str)))
	f2 := must(d.Insert(in.rel, false, db.Int(-in.n), db.Float(math.Trunc(x*1e-7)), db.String(in.rel+in.str+"<&>")))
	f3 := must(d.Insert(in.rel+"0", true))
	gone := must(d.Insert(in.rel, true, db.Int(1), db.Float(-x), db.String(in.str)))
	if err := d.Delete(gone.ID); err != nil {
		t.Fatal(err)
	}
	ranking := []db.FactID{f1.ID, f2.ID, gone.ID, f3.ID}
	if in.flags&0x08 != 0 {
		ranking = []db.FactID{gone.ID, f3.ID, f2.ID, f1.ID}
	}

	den := in.den
	if den == 0 {
		den = 1
	}
	r := big.NewRat(in.num, den)
	huge := new(big.Rat).Mul(r, r)
	huge.Mul(huge, huge).Mul(huge, big.NewRat(math.MaxInt64, 3))
	rats := []*big.Rat{r, new(big.Rat).Neg(r), huge, new(big.Rat)}
	values, proxy := make(repro.Values), make(repro.ProxyValues)
	approx := make(map[repro.FactID]repro.Estimate)
	for i, id := range ranking {
		values[id] = rats[i]
		proxy[id] = rats[len(rats)-1-i]
		if i != 1 {
			approx[id] = repro.Estimate{Value: in.score, CILow: in.score - 1, CIHigh: in.x}
		}
	}
	tuple := repro.Tuple{db.Int(in.n), db.Float(in.x), db.String(in.str)}
	elapsed := time.Duration(in.n)
	es := []repro.TupleExplanation{
		{Tuple: tuple, Method: repro.MethodExact, Values: values, Ranking: ranking, NumFacts: 3, Elapsed: elapsed},
		{Method: repro.MethodApprox, Approx: approx, Samples: int(in.n % 4096), DegradedCause: in.str,
			Ranking: ranking, NumFacts: len(ranking), Elapsed: -elapsed},
		{Tuple: repro.Tuple{}, Method: repro.MethodProxy, Proxy: proxy, Ranking: ranking[:in.flags%5]},
	}
	switch (in.flags >> 5) & 3 {
	case 1:
		es = es[:0]
	case 2:
		es = es[1:2]
	}

	hdr := ExplainResponse{Query: in.rel + in.str, Pooled: in.flags&0x02 != 0, ElapsedMs: in.ms}
	if in.flags&0x04 == 0 {
		hdr.Dataset = in.str
	}
	if in.flags&0x10 == 0 {
		hdr.RequestID = in.rel
	}
	if in.flags&0x01 != 0 {
		hdr.Trace = &TraceSpan{Name: in.str, DurationMs: in.ms, Attrs: map[string]any{
			in.rel: in.str, "n": in.n, "x": in.x, "cached": true,
		}, Children: []*TraceSpan{{Name: "tuple", StartMs: in.score}}}
	}
	return d, hdr, es, int(in.top)
}

// checkSplice fails unless the body AppendRenderedResponse splices from
// each tuple's standalone AppendExplanation bytes is the one-pass
// AppendExplainResponse body, or both fail. A tuple that fails to render
// must leave its buffer as it was.
func checkSplice(t *testing.T, d *repro.Database, hdr ExplainResponse, es []repro.TupleExplanation, top int) {
	t.Helper()
	want, werr := AppendExplainResponse(nil, d, &hdr, es, top)
	var tuples [][]byte
	var err error
	for i := range es {
		const prefix = "prefix"
		var b []byte
		if b, err = AppendExplanation([]byte(prefix), d, &es[i], top); err != nil {
			if string(b) != prefix {
				t.Fatalf("top=%d: failed tuple %d extended the buffer to %q", top, i, b)
			}
			break
		}
		tuples = append(tuples, b[len(prefix):])
	}
	var got []byte
	if err == nil {
		got, err = AppendRenderedResponse(nil, &hdr, tuples)
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("top=%d: splice error %v, one-pass error %v", top, err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("top=%d: spliced body differs from the one-pass body:\n got: %q\nwant: %q", top, got, want)
	}
}

// FuzzExplainResponse checks AppendExplainResponse against the struct form
// (EncodeExplanations + encoding/json) on databases and explanations built
// from the input: arbitrary relation names and strings (HTML characters,
// control bytes, U+2028, invalid UTF-8), extreme ints, floats and
// rationals, every method, a deleted fact, fuzzed top, elapsed times and
// scores, and an optional trace. The bytes must be equal, or both must
// fail. It also splices each tuple's standalone rendering, as the server
// does with cached ones, and that body must be the one-pass body.
func FuzzExplainResponse(f *testing.F) {
	for _, in := range fuzzSeeds() {
		f.Add(in.rel, in.str, in.n, in.x, in.num, in.den, in.score, in.ms, in.top, in.flags)
	}
	f.Fuzz(func(t *testing.T, rel, str string, n int64, x float64, num, den int64, score, ms float64, top int8, flags uint8) {
		in := fuzzInput{rel, str, n, x, num, den, score, ms, top, flags}
		d, hdr, es, top2 := in.build(t)
		checkSameBytes(t, d, hdr, es, top2)
		checkSplice(t, d, hdr, es, top2)
	})
}

// explainAllocCeiling is the allocation ceiling of rendering serve-mixed's
// q3 answer at top 10 into a reused buffer: the count measured when it was
// set, plus 10%. The count is 0: strings, numbers and rationals append into
// the buffer, and Score converts rationals of at most 53 bits without
// big.Rat's allocations.
const explainAllocCeiling = 0

// TestExplainResponseAllocations gates the writer's allocations on one
// fixed TPC-H answer. Allocation counts are deterministic, so a change that
// makes the writer allocate per value or per fact again trips the ceiling.
func TestExplainResponseAllocations(t *testing.T) {
	s, err := servedAnswers()
	if err != nil {
		t.Fatal(err)
	}
	hdr := ExplainResponse{Dataset: "tpch", Query: s.queries[0], Pooled: true, ElapsedMs: 0.8125, RequestID: "req-000001"}
	var buf []byte
	got := testing.AllocsPerRun(10, func() {
		if buf, err = AppendExplainResponse(buf[:0], s.d, &hdr, s.es[0], 10); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("q3: %d tuples, %d bytes, %.0f allocations", len(s.es[0]), len(buf), got)
	if got > explainAllocCeiling {
		t.Errorf("rendering allocates %.0f times, over its ceiling of %.0f", got, float64(explainAllocCeiling))
	}
}
