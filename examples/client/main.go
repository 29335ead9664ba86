// Client example: the explanation service over HTTP — the interactive
// workload of the paper served to remote analysts.
//
// The program starts an in-process shapleyd-equivalent server on an
// ephemeral port (in production you would run `shapleyd -addr :8080
// -datasets flights` and point the client at it) and then acts as a pure
// HTTP client: it asks why one can fly USA -> France with at most one stop
// (POST /v1/explain), deletes the top-contributing flight through a batched
// update (POST /v1/update), asks again, and restores the flight.
//
// It then walks the observability surfaces: the restored question asks
// for "trace": true, and the program prints the per-stage span tree the
// server recorded for that request,
// scrapes GET /metrics (Prometheus text exposition, validated and read with
// the in-repo promlint parser) for the session-pool counters showing every
// question after the first hit a warm pooled session, and reads GET
// /v1/debug/slow — the ring of recent explains that crossed the slow
// threshold, each kept with its request ID and full stage trace.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"

	"repro"
	"repro/internal/flights"
	"repro/internal/promlint"
	"repro/internal/server"
	"repro/internal/wire"
)

const query = `
	q() :- Airports(x, 'USA'), Airports(y, 'FR'), Flights(x, y)
	q() :- Airports(x, 'USA'), Airports(z, 'FR'), Flights(x, y), Flights(y, z)`

func main() {
	// Serve the paper's Figure 1 database.
	d, _ := flights.Build()
	srv, err := server.New(server.Config{
		Datasets: map[string]*repro.Database{"flights": d},
		// A 1ns threshold makes every explain "slow", so the slow-log
		// section below has entries to show; production values look like
		// `shapleyd -slow-explain 250ms`.
		SlowThreshold: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	explain := func(header string, traced bool) wire.ExplainResponse {
		var resp wire.ExplainResponse
		post(base+"/v1/explain", wire.ExplainRequest{Dataset: "flights", Query: query, Top: 3, Trace: traced}, &resp)
		fmt.Println(header)
		if len(resp.Tuples) == 0 {
			fmt.Println("  query is false")
			return resp
		}
		for _, f := range resp.Tuples[0].Facts {
			fmt.Printf("  %s%v  contributes %s\n", f.Relation, f.Tuple, f.ValueRat)
		}
		return resp
	}

	first := explain("Why can one fly USA -> France with at most one stop?", false)

	// The analyst removes the top-contributing flight — the direct
	// JFK->CDG leg, per the paper — and asks again. The fact ID comes from
	// the explain response; the update applies to the dataset, and the
	// pooled session absorbs it incrementally at the next explain.
	top := first.Tuples[0].Facts[0]
	var upd wire.UpdateResponse
	post(base+"/v1/update", wire.UpdateRequest{
		Dataset: "flights", Query: query,
		Deletes: []wire.DeleteSpec{{ID: top.ID}},
	}, &upd)
	fmt.Printf("\ndeleted %s%v (fact #%d)\n\n", top.Relation, top.Tuple, upd.DeletedIDs[0])

	explain("And without that flight?", false)

	// Restore it (an insert batch) and confirm the original answer.
	vals := make([]json.RawMessage, len(top.Tuple))
	for i, v := range top.Tuple {
		raw, _ := json.Marshal(v)
		vals[i] = raw
	}
	post(base+"/v1/update", wire.UpdateRequest{
		Dataset: "flights", Query: query,
		Inserts: []wire.InsertSpec{{Relation: top.Relation, Endogenous: true, Values: vals}},
	}, &upd)
	fmt.Printf("\nrestored %s%v as fact #%d\n\n", top.Relation, top.Tuple, upd.InsertedIDs[0])

	traced := explain("And with it restored?", true)

	// Observability surface 1: per-request stage tracing. Setting "trace":
	// true in the request makes the response carry the span tree the server
	// recorded while answering — which pipeline stages ran, how long each
	// took, and stage attributes like compiled-circuit node counts and
	// compile-cache hit kinds. The restore changed the answer's lineage, so
	// the session recomputed it under a tuple span; an answer served from
	// the session's cache opens no span, and its tree holds only the pool
	// acquire.
	fmt.Printf("\nstage trace for request %s (%.3fms total):\n", traced.RequestID, traced.ElapsedMs)
	printSpan(traced.Trace, 1)

	// Observability surface 2: Prometheus metrics, the server's one stats
	// surface. GET /metrics serves the text exposition format —
	// request/stage latency histograms, counters by route, status code, and
	// degradation cause, pool and cache counters. promlint is the same
	// structural validator the CI gate runs; promlint.Sum reads one series,
	// adding up the labels it leaves out (here the cache's hit kinds).
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var expo bytes.Buffer
	expo.ReadFrom(resp.Body)
	resp.Body.Close()
	pstats, err := promlint.Validate(expo.String())
	if err != nil {
		log.Fatal(err)
	}
	samples, _, err := promlint.Parse(expo.String())
	if err != nil {
		log.Fatal(err)
	}
	counter := func(series string) float64 {
		v, err := promlint.Sum(samples, series)
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	fmt.Printf("\n/metrics: %d families, %d samples, exposition valid; e.g.\n", pstats.Families, pstats.Samples)
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.HasPrefix(line, "repro_requests_total") || strings.HasPrefix(line, "repro_compilations_total") {
			fmt.Println("  " + line)
		}
	}
	fmt.Printf("session pool: %.0f open(s), %.0f reuse(s); value cache: %.0f hit(s), %.0f miss(es)\n",
		counter("repro_pool_opens_total"), counter("repro_pool_reuses_total"),
		counter("repro_compile_cache_hits_total"), counter("repro_compile_cache_misses_total"))

	// Observability surface 3: the slow-explain log. Explains that exceed
	// the configured threshold are kept — with their request IDs and full
	// stage traces — in a bounded ring served at /v1/debug/slow, so the
	// evidence for a latency spike survives until an operator looks.
	var slow wire.SlowResponse
	get(base+"/v1/debug/slow", &slow)
	fmt.Printf("\nslow-explain log (threshold %.6fms): %d entr(ies); most recent:\n",
		slow.ThresholdMs, len(slow.Entries))
	if n := len(slow.Entries); n > 0 {
		e := slow.Entries[n-1]
		fmt.Printf("  request %s on %q took %.3fms, root stage %q with %d sub-stage(s)\n",
			e.RequestID, e.Dataset, e.ElapsedMs, e.Trace.Name, len(e.Trace.Children))
	}
}

// printSpan renders a span tree, one indented line per stage with its wall
// time and sorted attributes.
func printSpan(n *wire.TraceSpan, depth int) {
	if n == nil {
		return
	}
	attrs := ""
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%v", k, n.Attrs[k])
		}
		attrs = "  [" + strings.Join(parts, " ") + "]"
	}
	fmt.Printf("%s%-10s %9.3fms%s\n", strings.Repeat("  ", depth), n.Name, n.DurationMs, attrs)
	for _, c := range n.Children {
		printSpan(c, depth+1)
	}
}

func post(url string, body, into any) {
	blob, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}

func get(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}
