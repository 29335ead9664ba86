package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/flights"
	"repro/internal/tpch"
	"repro/internal/wire"
)

// newTestServer starts an httptest server over a fresh flights database and
// returns its base URL plus the server and database.
func newTestServer(t *testing.T, cfg Config) (string, *Server, *repro.Database) {
	t.Helper()
	d, _ := flights.Build()
	if cfg.Datasets == nil {
		cfg.Datasets = map[string]*repro.Database{"flights": d}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts.URL, s, d
}

func postJSON(t *testing.T, url string, body, into any) (int, string) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

// assertServedMatchesCold compares a served explain response to a cold
// repro.Explain on the mirror database: tuple count, method, ranking order,
// and big.Rat-identical exact values.
func assertServedMatchesCold(t *testing.T, resp wire.ExplainResponse, mirror *repro.Database, label string) {
	t.Helper()
	assertServedMatchesColdQuery(t, resp, mirror, flights.Query(), label)
}

// assertServedMatchesColdQuery is assertServedMatchesCold for query q.
func assertServedMatchesColdQuery(t *testing.T, resp wire.ExplainResponse, mirror *repro.Database, q *repro.Query, label string) {
	t.Helper()
	cold, err := repro.Explain(context.Background(), mirror, q, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tuples) != len(cold) {
		t.Fatalf("%s: served %d tuples, cold %d", label, len(resp.Tuples), len(cold))
	}
	for i := range cold {
		got, want := resp.Tuples[i], &cold[i]
		if got.Method != want.Method.String() {
			t.Fatalf("%s: tuple %d method %q, want %q", label, i, got.Method, want.Method)
		}
		if len(got.Facts) != len(want.Ranking) {
			t.Fatalf("%s: tuple %d has %d facts, want %d", label, i, len(got.Facts), len(want.Ranking))
		}
		for j, id := range want.Ranking {
			f := got.Facts[j]
			if f.ID != int64(id) {
				t.Fatalf("%s: tuple %d rank %d is fact #%d, want #%d", label, i, j, f.ID, id)
			}
			if wantRat := want.Values[id].RatString(); f.ValueRat != wantRat {
				t.Fatalf("%s: tuple %d fact #%d = %s, want %s (big.Rat mismatch)",
					label, i, id, f.ValueRat, wantRat)
			}
		}
	}
}

// TestServerExplainUpdatePropertyRandomized is the acceptance bar: a
// randomized interleaving of explains and update batches (with and without
// a query), with every served
// explanation cross-checked big.Rat-identical against a cold repro.Explain
// on a mirror database maintained by the same mutation sequence.
func TestServerExplainUpdatePropertyRandomized(t *testing.T) {
	url, _, _ := newTestServer(t, Config{PoolSize: 4})
	mirror, _ := flights.Build()
	qtext := flights.Query().String()
	rng := rand.New(rand.NewSource(7))

	usa := []string{"JFK", "EWR", "BOS", "LAX"}
	fr := []string{"CDG", "ORY"}
	// live tracks server fact IDs of endogenous flights currently present
	// (initial a1..a8 plus survivors of our inserts); the sequential driver
	// keeps mirror IDs identical to server IDs.
	var live []int64
	for _, f := range mirror.EndogenousFacts() {
		live = append(live, int64(f.ID))
	}

	explains := 0
	for op := 0; op < 60; op++ {
		k := rng.Intn(5)
		if k >= 3 && len(live) == 0 {
			k = 2 // nothing to delete; insert instead
		}
		switch {
		case k <= 1: // explain
			var resp wire.ExplainResponse
			status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{
				Dataset: "flights", Query: qtext,
			}, &resp)
			if status != http.StatusOK {
				t.Fatalf("op %d: explain -> %d: %s", op, status, raw)
			}
			assertServedMatchesCold(t, resp, mirror, fmt.Sprintf("op %d", op))
			explains++
		case k == 2: // insert a joining flight
			src, dst := usa[rng.Intn(len(usa))], fr[rng.Intn(len(fr))]
			req := wire.UpdateRequest{
				Dataset: "flights",
				Inserts: []wire.InsertSpec{{
					Relation: "Flights", Endogenous: true,
					Values: []json.RawMessage{
						json.RawMessage(fmt.Sprintf("%q", src)),
						json.RawMessage(fmt.Sprintf("%q", dst)),
					},
				}},
			}
			pooled := rng.Intn(2) == 0
			if pooled {
				req.Query = qtext
			}
			var resp wire.UpdateResponse
			status, raw := postJSON(t, url+"/v1/update", req, &resp)
			if status != http.StatusOK {
				t.Fatalf("op %d: insert -> %d: %s", op, status, raw)
			}
			if resp.Pooled != pooled {
				t.Fatalf("op %d: pooled = %v, want %v", op, resp.Pooled, pooled)
			}
			f := mirror.MustInsert("Flights", true, repro.String(src), repro.String(dst))
			if len(resp.InsertedIDs) != 1 || resp.InsertedIDs[0] != int64(f.ID) {
				t.Fatalf("op %d: inserted IDs %v, mirror assigned %d — ID streams diverged",
					op, resp.InsertedIDs, f.ID)
			}
			live = append(live, int64(f.ID))
		default: // delete a random live endogenous flight
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			req := wire.UpdateRequest{
				Dataset: "flights",
				Deletes: []wire.DeleteSpec{{ID: id}},
			}
			if rng.Intn(2) == 0 {
				req.Query = qtext
			}
			var resp wire.UpdateResponse
			status, raw := postJSON(t, url+"/v1/update", req, &resp)
			if status != http.StatusOK {
				t.Fatalf("op %d: delete #%d -> %d: %s", op, id, status, raw)
			}
			if err := mirror.Delete(repro.FactID(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if explains == 0 {
		t.Fatal("randomized schedule exercised no explains")
	}

	// Final quiesced cross-check.
	var resp wire.ExplainResponse
	status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{
		Dataset: "flights", Query: qtext,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("final explain -> %d: %s", status, raw)
	}
	assertServedMatchesCold(t, resp, mirror, "final")
}

// TestPooledExplainOfUnusualConstants checks that a pooled explain answers
// like a cold repro.Explain, rendered by wire.AppendExplainResponse, for
// queries whose constants Go quoting or %g would garble: the pool keys
// sessions by the query's String and parses that text again when it opens
// one.
func TestPooledExplainOfUnusualConstants(t *testing.T) {
	d := repro.NewDatabase()
	d.CreateRelation("Labels", "tag", "label")
	d.CreateRelation("Scores", "name", "score")
	for _, tag := range []string{`a\b`, "x\ty", `say "hi"`, "plain"} {
		d.MustInsert("Labels", true, repro.String(tag), repro.String(tag+"!"))
	}
	for i, score := range []float64{3, 3, 0.0000001} {
		d.MustInsert("Scores", true, repro.String(fmt.Sprint("n", i)), repro.Float(score))
	}
	url, _, _ := newTestServer(t, Config{PoolSize: 8, Datasets: map[string]*repro.Database{"odd": d}})
	for _, qtext := range []string{
		`q(l) :- Labels('a\b', l)`,
		"q(l) :- Labels('x\ty', l)",
		`q(l) :- Labels('say "hi"', l)`,
		`q(n) :- Scores(n, 3.0)`,
		`q(n) :- Scores(n, s), s < 0.0000002`,
		`q() :- Scores(n, 0.0000001)`,
	} {
		var served wire.ExplainResponse
		status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "odd", Query: qtext}, &served)
		if status != http.StatusOK {
			t.Fatalf("%q -> %d: %s", qtext, status, raw)
		}
		q, err := repro.ParseQuery(qtext)
		if err != nil {
			t.Fatal(err)
		}
		es, err := repro.Explain(context.Background(), d, q, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		body, err := wire.AppendExplainResponse(nil, d, &wire.ExplainResponse{}, es, 0)
		if err != nil {
			t.Fatal(err)
		}
		var cold wire.ExplainResponse
		if err := json.Unmarshal(body, &cold); err != nil {
			t.Fatal(err)
		}
		if len(cold.Tuples) == 0 {
			t.Fatalf("%q has no answers", qtext)
		}
		for _, resp := range []*wire.ExplainResponse{&served, &cold} {
			for j := range resp.Tuples {
				resp.Tuples[j].ElapsedMs = 0
			}
		}
		want, _ := json.Marshal(cold.Tuples)
		got, _ := json.Marshal(served.Tuples)
		if !bytes.Equal(got, want) {
			t.Errorf("%q: pooled answer\n%s\ndiffers from a cold explain's\n%s", qtext, got, want)
		}
	}
}

// TestServerConcurrentClients hammers the service with concurrent explain
// and net-zero update traffic; everything must come back 2xx and the
// quiesced state must match the paper's flights ground truth. The explain
// clients ask three different queries, so three pooled sessions catch up
// from the one dataset's mutation feed concurrently.
func TestServerConcurrentClients(t *testing.T) {
	url, _, _ := newTestServer(t, Config{PoolSize: 4})
	qtext := flights.Query().String()
	queries := []*repro.Query{flights.Query(), flights.DirectQuery(), flights.OneStopQuery()}
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := []string{"JFK", "EWR", "BOS", "LAX"}[c%4]
			for r := 0; r < 4; r++ {
				if c%2 == 0 {
					// Update client: insert then delete its own fact.
					var ins wire.UpdateResponse
					blob, _ := json.Marshal(wire.UpdateRequest{
						Dataset: "flights", Query: qtext,
						Inserts: []wire.InsertSpec{{
							Relation: "Flights", Endogenous: true,
							Values: []json.RawMessage{
								json.RawMessage(fmt.Sprintf("%q", src)),
								json.RawMessage(`"ORY"`),
							},
						}},
					})
					resp, err := http.Post(url+"/v1/update", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("insert -> %d: %s", resp.StatusCode, raw)
						return
					}
					if err := json.Unmarshal(raw, &ins); err != nil {
						errs <- err
						return
					}
					blob, _ = json.Marshal(wire.UpdateRequest{
						Dataset: "flights", Query: qtext,
						Deletes: []wire.DeleteSpec{{ID: ins.InsertedIDs[0]}},
					})
					resp, err = http.Post(url+"/v1/update", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						return
					}
					raw, _ = io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("delete -> %d: %s", resp.StatusCode, raw)
						return
					}
				} else {
					blob, _ := json.Marshal(wire.ExplainRequest{
						Dataset: "flights", Query: queries[c/2%len(queries)].String(),
					})
					resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("explain -> %d: %s", resp.StatusCode, raw)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: the traffic was net-zero, so the state matches a fresh
	// flights database.
	fresh, _ := flights.Build()
	for _, q := range queries {
		var resp wire.ExplainResponse
		status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: q.String()}, &resp)
		if status != http.StatusOK {
			t.Fatalf("final explain -> %d: %s", status, raw)
		}
		assertServedMatchesColdQuery(t, resp, fresh, q, "quiesced "+q.String())
	}

	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, `repro_requests_total{route="/v1/update",code="200"}`); n != clients/2*4*2 {
		t.Errorf("update requests = %v, want %d", n, clients/2*4*2)
	}
	if opens, reuses := metric(t, samples, "repro_pool_opens_total"), metric(t, samples, "repro_pool_reuses_total"); opens < 1 || reuses < 1 {
		t.Errorf("pool counters show no reuse: %v opens, %v reuses", opens, reuses)
	}
}

// TestServerHTTPBasics covers the protocol edges: health, the counters on
// /metrics, content deletes, top truncation, and the 4xx surface.
func TestServerHTTPBasics(t *testing.T) {
	url, _, _ := newTestServer(t, Config{PoolSize: 2})
	qtext := flights.Query().String()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Top truncation.
	var er wire.ExplainResponse
	status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext, Top: 2}, &er)
	if status != http.StatusOK || len(er.Tuples) != 1 || len(er.Tuples[0].Facts) != 2 {
		t.Fatalf("top=2 explain: %d %s", status, raw)
	}
	if er.Tuples[0].Facts[0].ValueRat != "43/105" {
		t.Errorf("top fact = %s, want 43/105", er.Tuples[0].Facts[0].ValueRat)
	}

	// Content-addressed delete + reinsert round trip.
	var ur wire.UpdateResponse
	status, raw = postJSON(t, url+"/v1/update", wire.UpdateRequest{
		Dataset: "flights", Query: qtext,
		Deletes: []wire.DeleteSpec{{Relation: "Flights", Values: []json.RawMessage{
			json.RawMessage(`"JFK"`), json.RawMessage(`"CDG"`),
		}}},
	}, &ur)
	if status != http.StatusOK || len(ur.DeletedIDs) != 1 {
		t.Fatalf("content delete: %d %s", status, raw)
	}
	status, raw = postJSON(t, url+"/v1/update", wire.UpdateRequest{
		Dataset: "flights", Query: qtext,
		Inserts: []wire.InsertSpec{{Relation: "Flights", Endogenous: true, Values: []json.RawMessage{
			json.RawMessage(`"JFK"`), json.RawMessage(`"CDG"`),
		}}},
	}, &ur)
	if status != http.StatusOK {
		t.Fatalf("reinsert: %d %s", status, raw)
	}
	fresh, _ := flights.Build()
	status, _ = postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, &er)
	if status != http.StatusOK {
		t.Fatal("explain after delete/reinsert failed")
	}
	// Values match ground truth by content even though the reinserted fact
	// has a fresh ID.
	cold, err := repro.Explain(context.Background(), fresh, flights.Query(), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTop := cold[0].Values[repro.FactID(1)].RatString()
	if er.Tuples[0].Facts[0].ValueRat != wantTop ||
		er.Tuples[0].Facts[0].Relation != "Flights" ||
		er.Tuples[0].Facts[0].Tuple[0] != "JFK" {
		t.Errorf("after reinsert, top fact = %+v, want JFK->CDG at %s", er.Tuples[0].Facts[0], wantTop)
	}

	// Counters on /metrics.
	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, "repro_pool_opens_total"); n < 1 {
		t.Errorf("pool opens = %v, want ≥ 1", n)
	}
	if n := metric(t, samples, `repro_requests_total{route="/v1/update",code="200"}`); n != 2 {
		t.Errorf("update requests = %v, want 2", n)
	}
	if n := metric(t, samples, `repro_requests_total{route="/v1/explain"}`); n < 1 {
		t.Errorf("explain requests = %v, want ≥ 1", n)
	}
	if metric(t, samples, "repro_compile_cache_hits_total")+metric(t, samples, "repro_compile_cache_misses_total") == 0 {
		t.Error("/metrics shows an untouched value cache after explains")
	}

	// 4xx surface.
	for _, c := range []struct {
		path string
		body any
		want int
	}{
		{"/v1/explain", wire.ExplainRequest{Dataset: "nope", Query: qtext}, http.StatusBadRequest},
		{"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: "not a query"}, http.StatusBadRequest},
		// Every explain goes through the pool: the retired no_pool field is
		// an unknown field.
		{"/v1/explain", json.RawMessage(`{"dataset": "flights", "query": ` + strconv.Quote(qtext) + `, "no_pool": true}`), http.StatusBadRequest},
		{"/v1/update", wire.UpdateRequest{Dataset: "flights", Query: qtext, Deletes: []wire.DeleteSpec{{ID: 99999}}}, http.StatusBadRequest},
		{"/v1/update", wire.UpdateRequest{Dataset: "flights", Inserts: []wire.InsertSpec{{Relation: "NoRel", Values: []json.RawMessage{json.RawMessage(`1`)}}}}, http.StatusBadRequest},
	} {
		status, raw := postJSON(t, url+c.path, c.body, nil)
		if status != c.want {
			t.Errorf("%s %+v -> %d (%s), want %d", c.path, c.body, status, raw, c.want)
		}
	}
	resp, err = http.Get(url + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explain -> %d, want 405", resp.StatusCode)
	}
}

// TestServerConfigValidation: bad configurations fail at New.
func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no datasets succeeded")
	}
	d, _ := flights.Build()
	if _, err := New(Config{
		Datasets: map[string]*repro.Database{"flights": d},
		Options:  repro.Options{Workers: -1},
	}); err == nil {
		t.Error("New with invalid options succeeded")
	}
}

// TestConcurrentPooledExplainsOfOneDataset sends pooled explains of the
// nine TPC-H queries at once to one dataset, in bursts over fresh
// datasets. Each request opens its own session, so the groundings of one
// dataset build its relation indexes concurrently under its read lock (run
// under -race in CI). Every answer must equal a cold explain on a mirror.
func TestConcurrentPooledExplainsOfOneDataset(t *testing.T) {
	cfg := tpch.DefaultConfig().Scaled(0.3)
	mirror := tpch.Generate(cfg)
	for round := 0; round < 4; round++ {
		url, _, _ := newTestServer(t, Config{
			Datasets: map[string]*repro.Database{"tpch": tpch.Generate(cfg)},
			PoolSize: 16,
		})
		queries := tpch.Queries()
		resps := make([]wire.ExplainResponse, len(queries))
		errs := make([]error, len(queries))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, bq := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blob, _ := json.Marshal(wire.ExplainRequest{Dataset: "tpch", Query: bq.Q.String()})
				<-start
				resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(blob))
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(resp.Body)
					errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				errs[i] = json.NewDecoder(resp.Body).Decode(&resps[i])
			}()
		}
		close(start)
		wg.Wait()
		for i, bq := range queries {
			if errs[i] != nil {
				t.Fatalf("round %d %s: %v", round, bq.Name, errs[i])
			}
			if !resps[i].Pooled {
				t.Errorf("round %d %s: not served by a pooled session", round, bq.Name)
			}
			assertServedMatchesColdQuery(t, resps[i], mirror, bq.Q, bq.Name)
		}
	}
}

// TestUpdateOpensNoSession: an update naming a query no session holds
// applies to the dataset without opening a session for that query, so it
// neither grounds one nor evicts the warm session of a full pool, and the
// warm session still answers as a cold explain does.
func TestUpdateOpensNoSession(t *testing.T) {
	url, s, _ := newTestServer(t, Config{PoolSize: 1})
	mirror, _ := flights.Build()
	qtext := flights.Query().String()
	explain := func() {
		t.Helper()
		var resp wire.ExplainResponse
		if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, &resp); status != http.StatusOK {
			t.Fatalf("explain -> %d: %s", status, raw)
		}
		assertServedMatchesCold(t, resp, mirror, "warm session")
	}
	explain()
	before := scrapeMetrics(t, url)

	var resp wire.UpdateResponse
	status, raw := postJSON(t, url+"/v1/update", wire.UpdateRequest{
		Dataset: "flights", Query: flights.DirectQuery().String(),
		Inserts: []wire.InsertSpec{{Relation: "Flights", Endogenous: true, Values: []json.RawMessage{
			json.RawMessage(`"BOS"`), json.RawMessage(`"ORY"`),
		}}},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("update -> %d: %s", status, raw)
	}
	if !resp.Pooled || resp.BatchRequests != 1 || len(resp.InsertedIDs) != 1 {
		t.Errorf("update response %+v, want pooled, batch_requests 1, one inserted ID", resp)
	}
	mirror.MustInsert("Flights", true, repro.String("BOS"), repro.String("ORY"))

	after := scrapeMetrics(t, url)
	for _, series := range []string{"repro_pool_opens_total", "repro_pool_evictions_total"} {
		if b, a := metric(t, before, series), metric(t, after, series); a != b {
			t.Errorf("%s went %v -> %v across the update", series, b, a)
		}
	}
	s.pool.mu.Lock()
	_, warm := s.pool.entries[Key{Dataset: "flights", Query: qtext}]
	s.pool.mu.Unlock()
	if !warm {
		t.Fatal("the update evicted the warm session")
	}
	explain()
	if n := metric(t, scrapeMetrics(t, url), "repro_pool_opens_total"); n != 1 {
		t.Errorf("pool opens = %v after the second explain, want 1", n)
	}
}

// TestUpdateFailureAppliesPrefix pins a failing update's semantics: the
// mutations before the failing one are applied, none after it, and the 400
// names the failing mutation's index in the request's batch (inserts first,
// then deletes).
func TestUpdateFailureAppliesPrefix(t *testing.T) {
	url, _, d := newTestServer(t, Config{PoolSize: 2})
	mirror, _ := flights.Build()
	qtext := flights.Query().String()
	var er wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, &er); status != http.StatusOK {
		t.Fatalf("explain -> %d: %s", status, raw)
	}
	facts := d.NumFacts()
	flight := func(src string) wire.InsertSpec {
		return wire.InsertSpec{Relation: "Flights", Endogenous: true, Values: []json.RawMessage{
			json.RawMessage(fmt.Sprintf("%q", src)), json.RawMessage(`"ORY"`),
		}}
	}
	status, raw := postJSON(t, url+"/v1/update", wire.UpdateRequest{
		Dataset: "flights", Query: qtext,
		Inserts: []wire.InsertSpec{flight("JFK"), flight("BOS")},
		Deletes: []wire.DeleteSpec{{ID: 99999}, {ID: 1}},
	}, nil)
	if status != http.StatusBadRequest || !strings.Contains(raw, "mutation 2") {
		t.Fatalf("update -> %d %s, want 400 naming mutation 2", status, raw)
	}
	if d.NumFacts() != facts+2 || d.Fact(1) == nil {
		t.Fatalf("%d facts, fact #1 present: %v; want %d facts, the two inserts applied and the delete after the failure not", d.NumFacts(), d.Fact(1) != nil, facts+2)
	}
	mirror.MustInsert("Flights", true, repro.String("JFK"), repro.String("ORY"))
	mirror.MustInsert("Flights", true, repro.String("BOS"), repro.String("ORY"))
	if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, &er); status != http.StatusOK {
		t.Fatalf("explain -> %d: %s", status, raw)
	}
	assertServedMatchesCold(t, er, mirror, "after the failed update")
}
