package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/tpch"
	"repro/internal/wire"
)

// servedQueries returns the normalized texts of serve-mixed's four TPC-H
// queries, by name.
func servedQueries() map[string]string {
	out := make(map[string]string)
	for _, bq := range tpch.Queries() {
		switch bq.Name {
		case "q3", "q10", "q11", "q18":
			out[bq.Name] = bq.Q.String()
		}
	}
	return out
}

// tuplesOf returns the raw bytes of an explain body's "tuples" member.
func tuplesOf(t *testing.T, body []byte) []byte {
	t.Helper()
	var v struct {
		Tuples json.RawMessage `json:"tuples"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("body does not decode: %v\n%s", err, body)
	}
	return v.Tuples
}

// TestPooledRenderingsMatchFresh serves serve-mixed's four queries from
// pooled sessions over TPC-H and checks every response's tuples byte for
// byte against AppendExplainResponse rendering the same explanations
// afresh, from the same database state. It interleaves explains at top 0,
// 1 and 10, with and without a trace or under another spelling of the
// query, with deletes and re-inserts of top-ranked lineage facts, and with
// a budgeted explain that degrades and is then upgraded in the background. A repeated explain with no write in
// between renders nothing: every tuple's bytes are kept from the first.
func TestPooledRenderingsMatchFresh(t *testing.T) {
	d := tpch.Generate(tpch.DefaultConfig())
	s, err := New(Config{Datasets: map[string]*repro.Database{"tpch": d}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []byte
	s.testHookRendered = func(d *repro.Database, es []repro.TupleExplanation, top int) {
		body, err := wire.AppendExplainResponse(nil, d, &wire.ExplainResponse{}, es, top)
		if err != nil {
			t.Errorf("fresh rendering: %v", err)
		}
		want = tuplesOf(t, body)
	}
	post := func(route string, req any) []byte {
		t.Helper()
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(blob)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", route, blob, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// explain serves req and returns its response with the number of its
	// tuples rendered for it rather than kept.
	explain := func(req wire.ExplainRequest, label string) (wire.ExplainResponse, int64) {
		t.Helper()
		want = nil
		misses := s.renderMisses.Load()
		body := post("/v1/explain", req)
		if want == nil {
			t.Fatalf("%s: the pooled explain rendered nothing", label)
		}
		if got := tuplesOf(t, body); !bytes.Equal(got, want) {
			t.Fatalf("%s: served tuples differ from a fresh rendering:\n got: %.300s\nwant: %.300s", label, got, want)
		}
		var resp wire.ExplainResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp, s.renderMisses.Load() - misses
	}
	queries := servedQueries()
	names := []string{"q3", "q10", "q11", "q18"}
	// all explains every query at each top, with and without a trace. Each
	// query's first and last explains are at top 1, which lists one fact
	// before and after a write alike, so bytes kept past a write would be
	// served.
	all := func(label string) {
		t.Helper()
		for _, name := range names {
			for _, top := range []int{1, 10, 0} {
				for _, tr := range []bool{false, true} {
					explain(wire.ExplainRequest{Dataset: "tpch", Query: queries[name], Top: top, Trace: tr},
						fmt.Sprintf("%s: %s top %d trace %v", label, name, top, tr))
				}
			}
			// Another spelling of the query is parsed to the same session
			// and answers under the normalized text.
			spelled := wire.ExplainRequest{Dataset: "tpch", Query: "  " + queries[name] + "\n", Top: 10}
			if resp, _ := explain(spelled, label+": "+name+" spelled"); resp.Query != queries[name] {
				t.Fatalf("%s: %s spelled: answered for %q", label, name, resp.Query)
			}
			req := wire.ExplainRequest{Dataset: "tpch", Query: queries[name], Top: 1}
			explain(req, label+": "+name+" top 1 again")
			if _, misses := explain(req, label+": "+name+" top 1 repeated"); misses != 0 {
				t.Fatalf("%s: %s: a repeated explain rendered %d tuples", label, name, misses)
			}
		}
	}
	// A budgeted explain degrades every tuple it computes; the background
	// upgrade then replaces them with exact ones, which budgeted explains
	// serve.
	degraded := wire.ExplainRequest{Dataset: "tpch", Query: queries["q10"], Top: 10, Mode: "approximate", MinSamples: 64}
	degradeThenUpgrade := func(label string) {
		t.Helper()
		resp, _ := explain(degraded, label+": degraded")
		approx := 0
		for _, tu := range resp.Tuples {
			if tu.Approximate {
				approx++
			}
		}
		if approx == 0 {
			t.Fatalf("%s: a mode approximate explain that computed tuples answered none approximately", label)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			resp, _ = explain(degraded, label+": upgrading")
			exact := 0
			for _, tu := range resp.Tuples {
				if tu.Method == "exact" {
					exact++
				}
			}
			if exact == len(resp.Tuples) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d tuples upgraded after 10s", label, exact, len(resp.Tuples))
			}
		}
	}
	degradeThenUpgrade("cold q10")
	all("cold")

	// Delete the top-ranked fact of each query's first tuple, then put a
	// copy back, explaining everything after each write. After q10's
	// re-insert, the tuples it brought back degrade and are upgraded first.
	for _, name := range names {
		resp, _ := explain(wire.ExplainRequest{Dataset: "tpch", Query: queries[name], Top: 10}, name)
		id := repro.FactID(resp.Tuples[0].Facts[0].ID)
		f := d.Fact(id)
		ins := wire.InsertSpec{Relation: f.Relation, Endogenous: f.Endogenous}
		for _, v := range f.Tuple {
			raw, err := json.Marshal(wire.EncodeValue(v))
			if err != nil {
				t.Fatal(err)
			}
			ins.Values = append(ins.Values, raw)
		}
		post("/v1/update", wire.UpdateRequest{Dataset: "tpch", Deletes: []wire.DeleteSpec{{ID: int64(id)}}})
		all("after deleting " + name + "'s top fact")
		post("/v1/update", wire.UpdateRequest{Dataset: "tpch", Inserts: []wire.InsertSpec{ins}})
		if name == "q10" {
			degradeThenUpgrade("after re-inserting q10's top fact")
		}
		all("after re-inserting " + name + "'s top fact")
	}
}

// TestWarmPooledExplainAllocations: a warm pooled explain allocates the
// same for TPC-H q3 (5 answers at scale 1) and q18 (17 answers), because a
// known query text is not parsed and every tuple's bytes are kept from the
// first request. -v logs the counts. The race detector makes the body
// pool drop bodies at random, so the gate runs without it.
func TestWarmPooledExplainAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under the race detector")
	}
	d := tpch.Generate(tpch.DefaultConfig())
	s, err := New(Config{Datasets: map[string]*repro.Database{"tpch": d}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	queries := servedQueries()
	var counts []float64
	for _, name := range []string{"q3", "q18"} {
		body, err := json.Marshal(wire.ExplainRequest{Dataset: "tpch", Query: queries[name], Top: 10})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{header: make(http.Header)}
		serve := func() {
			req, err := http.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			w.status, w.n = http.StatusOK, 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", name, w.status)
			}
		}
		serve() // open the session and keep its renderings
		n := testing.AllocsPerRun(100, serve)
		t.Logf("%s: %.0f allocations per warm pooled explain", name, n)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("warm pooled explain allocations vary with the answers: q3 %v, q18 %v", counts[0], counts[1])
	}
}
