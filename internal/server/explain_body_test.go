package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/tpch"
	"repro/internal/wire"
)

// TestWriteExplainRejectsNaN checks that a body encoding/json would refuse
// is answered 500 with an error body, and that no 200 header or partial
// body goes out first. A NaN sampled score fails the tuple's rendering
// before any header is written, with an error the handler maps to 500; a
// NaN in the trace fails writeExplain itself.
func TestWriteExplainRejectsNaN(t *testing.T) {
	d := repro.NewDatabase()
	d.CreateRelation("R", "a")
	f, err := d.Insert("R", true, repro.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	es := []repro.TupleExplanation{{
		Method:  repro.MethodApprox,
		Approx:  map[repro.FactID]repro.Estimate{f.ID: {Value: math.NaN()}},
		Ranking: []repro.FactID{f.ID},
	}}
	checkNaN500 := func(label string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", label, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "NaN") {
			t.Fatalf("%s: body %q (%v), want an error naming NaN", label, rec.Body, err)
		}
	}
	err = new(explainBody).renderKept(d, es, 0)
	if err == nil {
		t.Fatal("a NaN score rendered")
	}
	rec := httptest.NewRecorder()
	writeError(rec, errStatus(err), err)
	checkNaN500("score", rec)

	b := new(explainBody)
	es[0].Approx[f.ID] = repro.Estimate{Value: 0.5}
	if err := b.renderKept(d, es, 0); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	writeExplain(rec, &wire.ExplainResponse{Query: "q() :- R(x)", Trace: &wire.TraceSpan{
		Name: "explain", Attrs: map[string]any{"x": math.NaN()},
	}}, b)
	checkNaN500("trace", rec)
}

// TestWriteExplainPoolBound checks the body pool's size bound: after a body
// of more than maxPooledBody bytes is sent, with its Content-Length, no
// body the pool hands out holds a buffer that large.
func TestWriteExplainPoolBound(t *testing.T) {
	d := repro.NewDatabase()
	d.CreateRelation("R", "a")
	long := strings.Repeat("x", 1024)
	e := repro.TupleExplanation{Method: repro.MethodExact, Values: make(repro.Values)}
	for i := range 2048 {
		f, err := d.Insert("R", true, repro.String(long+strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		e.Values[f.ID] = big.NewRat(1, 2048)
		e.Ranking = append(e.Ranking, f.ID)
	}
	b := bodyPool.Get().(*explainBody)
	if err := b.renderKept(d, []repro.TupleExplanation{e}, 0); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeExplain(rec, &wire.ExplainResponse{Query: "q() :- R(x)"}, b)
	b.release()
	if rec.Code != http.StatusOK || rec.Body.Len() <= maxPooledBody {
		t.Fatalf("status %d with %d bytes, want 200 with more than %d", rec.Code, rec.Body.Len(), maxPooledBody)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
	for range 4 {
		b := bodyPool.Get().(*explainBody)
		if cap(b.buf) > maxPooledBody {
			t.Fatalf("pool handed out a %d-byte buffer, over its %d-byte bound", cap(b.buf), maxPooledBody)
		}
		defer bodyPool.Put(b)
	}
}

// discardResponse is a ResponseWriter that keeps only the status, so a
// benchmark times the handler rather than a recorder's buffer.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(code int)        { w.status = code }
func (w *discardResponse) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkExplainHandler times the /v1/explain handler in process on
// serve-mixed's read side: TPC-H at scale 4, its four queries round robin,
// top 10, every session pooled and warm, so the time is the pooled explain
// plus the rendering of its answer.
func BenchmarkExplainHandler(b *testing.B) {
	d := tpch.Generate(tpch.DefaultConfig().Scaled(4))
	s, err := New(Config{Datasets: map[string]*repro.Database{"tpch": d}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	byName := make(map[string]*repro.Query)
	for _, bq := range tpch.Queries() {
		byName[bq.Name] = bq.Q
	}
	var bodies [][]byte
	for _, name := range []string{"q3", "q10", "q11", "q18"} {
		body, err := json.Marshal(wire.ExplainRequest{Dataset: "tpch", Query: byName[name].String(), Top: 10})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	h := s.Handler()
	w := &discardResponse{header: make(http.Header)}
	serve := func(i int) {
		req, err := http.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		w.status, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			b.Fatalf("explain answered %d with %d bytes", w.status, w.n)
		}
	}
	for i := range bodies {
		serve(i) // open and warm every session
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		serve(i)
	}
}
