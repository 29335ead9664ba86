package server

// Overload and failure tests for the resilience middleware: admission
// control sheds with 429 + Retry-After while in-flight requests complete,
// handler panics become 500s that release their pool refcounts, request
// deadlines become 504s, and a storage-degraded dataset serves reads but
// refuses updates with 503 — with /metrics accounting for every shed,
// panic, and timeout.

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/faultfs"
	"repro/internal/flights"
	"repro/internal/wire"
)

// TestServerOverloadSheds saturates a MaxInFlight=1 explain route with one
// deliberately parked request: the excess request is shed immediately with
// 429 and a Retry-After hint, exempt routes stay reachable, the parked
// request still completes, and the shed shows up in /metrics.
func TestServerOverloadSheds(t *testing.T) {
	url, srv, _ := newTestServer(t, Config{PoolSize: 2, MaxInFlight: 1})
	qtext := flights.Query().String()

	entered := make(chan struct{})
	release := make(chan struct{})
	srv.pool.testHookExplain = func() {
		entered <- struct{}{}
		<-release
	}

	first := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, nil)
		first <- status
	}()
	<-entered // the first request now owns the route's only slot

	// Excess request: shed at admission, before any session work.
	resp, err := http.Post(url+"/v1/explain", "application/json",
		strings.NewReader(`{"dataset":"flights","query":"`+qtext+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated explain -> %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}

	// Observability routes are admission-exempt: both answer while the work
	// route is saturated.
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s under overload -> %d, want 200", path, r.StatusCode)
		}
	}

	// The parked in-flight request completes normally once unblocked.
	close(release)
	srv.pool.testHookExplain = nil
	if status := <-first; status != http.StatusOK {
		t.Fatalf("in-flight explain -> %d, want 200", status)
	}

	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, `repro_sheds_total{route="/v1/explain"}`); n != 1 {
		t.Errorf("explain sheds = %v, want 1", n)
	}
	if n := metric(t, samples, `repro_requests_total{route="/v1/explain",code="429"}`); n != 1 {
		t.Errorf("explain 429s = %v, want 1 (the shed request)", n)
	}
}

// TestServerPanicRecovery injects a panic while the handler holds a pooled
// session: the client gets a 500 (not a dropped connection), the panic is
// counted, the refcount releases (pool drains to zero), and the session
// keeps serving afterwards.
func TestServerPanicRecovery(t *testing.T) {
	url, srv, _ := newTestServer(t, Config{PoolSize: 2})
	qtext := flights.Query().String()

	srv.pool.testHookExplain = func() { panic("injected mid-explain failure") }
	status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked explain -> %d (%s), want 500", status, raw)
	}
	if !strings.Contains(raw, "panicked") {
		t.Errorf("500 body does not name the panic: %s", raw)
	}
	if n := srv.pool.inFlight(); n != 0 {
		t.Fatalf("pool holds %d refs after panic, want 0 (refcount leaked)", n)
	}

	// The session survives the panicked request.
	srv.pool.testHookExplain = nil
	var er wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, &er); status != http.StatusOK {
		t.Fatalf("explain after recovered panic -> %d: %s", status, raw)
	}

	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, `repro_panics_total{route="/v1/explain"}`); n != 1 {
		t.Errorf("explain panics = %v, want 1", n)
	}
	if n := metric(t, samples, `repro_requests_total{route="/v1/explain",code="500"}`); n != 1 {
		t.Errorf("explain 500s = %v, want 1 (the panicked request)", n)
	}
}

// TestServerRequestTimeout arms an unmeetable per-request deadline: the
// pipeline aborts at its next cancellation point and the client gets a 504,
// counted in /metrics.
func TestServerRequestTimeout(t *testing.T) {
	url, _, _ := newTestServer(t, Config{PoolSize: 2, RequestTimeout: time.Nanosecond})
	qtext := flights.Query().String()

	status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: qtext}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline-bound explain -> %d (%s), want 504", status, raw)
	}
	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, `repro_timeouts_total{route="/v1/explain"}`); n != 1 {
		t.Errorf("explain timeouts = %v, want 1", n)
	}
	if n := metric(t, samples, `repro_requests_total{route="/v1/explain",code="504"}`); n != 1 {
		t.Errorf("explain 504s = %v, want 1", n)
	}
}

// TestServerDegradedDataset serves a dataset whose store refused a write:
// explains keep answering from the last durable state, updates are refused
// with 503 + Retry-After and the storage error in the body, and /metrics
// flags the dataset degraded.
func TestServerDegradedDataset(t *testing.T) {
	inj := faultfs.New()
	d := db.New()
	err := d.Persist(db.PersistConfig{
		Dir:  t.TempDir(),
		Sync: db.SyncPolicy{Mode: db.SyncAlways},
		OpenFile: func(path string, flag int, perm os.FileMode) (db.WALFile, error) {
			return inj.Open(path, flag, perm)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("Flights", "src", "dst")
	d.MustInsert("Flights", true, repro.String("JFK"), repro.String("CDG"))
	d.MustInsert("Flights", false, repro.String("CDG"), repro.String("NRT"))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	inj.CrashAt(inj.Written()) // every further byte of WAL I/O now fails
	if _, err := d.Insert("Flights", true, repro.String("BOS"), repro.String("CDG")); err == nil {
		t.Fatal("insert on crashed store succeeded")
	}
	derr := d.Err()
	if derr == nil {
		t.Fatal("database not degraded after storage failure")
	}

	url, _, _ := newTestServer(t, Config{
		Datasets: map[string]*repro.Database{"faulty": d},
		PoolSize: 2,
	})
	qtext := "q() :- Flights(x, y), Flights(y, z)"

	// Reads still serve the last durable (= in-memory, after rollback) state.
	var er wire.ExplainResponse
	if status, raw := postJSON(t, url+"/v1/explain", wire.ExplainRequest{Dataset: "faulty", Query: qtext}, &er); status != http.StatusOK {
		t.Fatalf("explain on degraded dataset -> %d: %s", status, raw)
	}
	if len(er.Tuples) != 1 || er.Tuples[0].NumFacts != 1 {
		t.Fatalf("degraded explain = %+v, want the 1-endogenous-fact answer", er.Tuples)
	}

	// Mutations are refused before any session work, pooled or not.
	for _, query := range []string{"", qtext} {
		req := wire.UpdateRequest{
			Dataset: "faulty", Query: query,
			Inserts: []wire.InsertSpec{{Relation: "Flights", Endogenous: true, Values: []json.RawMessage{
				json.RawMessage(`"EWR"`), json.RawMessage(`"CDG"`),
			}}},
		}
		blob, _ := json.Marshal(req)
		resp, err := http.Post(url+"/v1/update", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("update (query=%q) on degraded dataset -> %d, want 503", query, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 carries no Retry-After header")
		}
		if err != nil || body.Error != derr.Error() {
			t.Errorf("503 body error %q (%v), want the storage error %q", body.Error, err, derr)
		}
	}

	samples := scrapeMetrics(t, url)
	if n := metric(t, samples, `repro_dataset_degraded{dataset="faulty"}`); n != 1 {
		t.Errorf("repro_dataset_degraded = %v, want 1", n)
	}
	if n := metric(t, samples, `repro_dataset_facts{dataset="faulty"}`); n != 2 {
		t.Errorf("repro_dataset_facts = %v, want the 2 durable facts", n)
	}
}
