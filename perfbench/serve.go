package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/tpch"
	"repro/internal/wire"
)

// serve-mixed reads four TPC-H queries from a shapleyd serving TPC-H at
// scale 4 with its default pool, timeout and cache. Together the queries
// hold 200 output tuples, which fit both the pool and the cache.
var hotQueries = []string{"q3", "q10", "q11", "q18"}

const (
	serveScale = 4
	// serveClients closed-loop clients each wait for an answer before
	// asking again, like analysts at a console.
	serveClients = 2
	// serveTop is how many ranked facts each explain asks for.
	serveTop = 10
	// updateEvery makes every 4th request of a client an update.
	updateEvery = 4
	// daemonTimeout is shapleyd's default exact budget per tuple; the
	// replay's sessions use it too.
	daemonTimeout = 2500 * time.Millisecond
)

// servedRef is a hot query's reference answer keyed by fact content, so it
// can be compared with a daemon's answer across processes.
type servedRef map[string]refTuple // by output tuple

type refTuple struct {
	ranking []string          // fact content keys, best first
	values  map[string]string // exact value by fact content key
}

// serveData is the local copy of the served dataset, the reference answers
// of the hot queries, and the lineitems the updates copy.
type serveData struct {
	d       *repro.Database
	queries []*repro.Query
	text    []string // normalized query text, as the daemon keys its pool
	bodies  [][]byte // explain request per hot query
	ref     []servedRef
	copies  []*repro.Fact // lineitems in a hot query's lineage, by ID
	line    int           // position of linenumber in a lineitem
}

// newServeData generates the served dataset as shapleyd does and computes
// the reference with a serial, cache-free repro.Explain.
func newServeData(ctx context.Context) (*serveData, error) {
	sd := &serveData{d: tpch.Generate(tpch.DefaultConfig().Scaled(serveScale))}
	sd.line = sd.d.Relation("lineitem").Schema.ColumnIndex("linenumber")
	byName := make(map[string]*repro.Query)
	for _, bq := range tpch.Queries() {
		byName[bq.Name] = bq.Q
	}
	seen := make(map[repro.FactID]bool)
	for _, name := range hotQueries {
		q := byName[name]
		es, err := repro.Explain(ctx, sd.d, q, repro.Options{Workers: 1, CacheSize: -1})
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", name, err)
		}
		ref := make(servedRef)
		for _, e := range es {
			rt := refTuple{values: make(map[string]string)}
			for _, id := range e.Ranking {
				f := sd.d.Fact(id)
				key := factKey(f.Relation, wire.EncodeTuple(f.Tuple))
				rt.ranking = append(rt.ranking, key)
				rt.values[key] = e.Values[id].RatString()
				if f.Relation == "lineitem" && !seen[id] {
					seen[id] = true
					sd.copies = append(sd.copies, f)
				}
			}
			ref[tupleKey(wire.EncodeTuple(e.Tuple))] = rt
		}
		text := q.String()
		body, err := json.Marshal(wire.ExplainRequest{Dataset: "tpch", Query: text, Top: serveTop})
		if err != nil {
			return nil, err
		}
		sd.queries = append(sd.queries, q)
		sd.text = append(sd.text, text)
		sd.bodies = append(sd.bodies, body)
		sd.ref = append(sd.ref, ref)
	}
	sort.Slice(sd.copies, func(i, j int) bool { return sd.copies[i].ID < sd.copies[j].ID })
	return sd, nil
}

// copyValues returns the values of a copy of lineitem k with the given line
// number.
func (sd *serveData) copyValues(k int, line int64) []repro.Value {
	vals := append([]repro.Value(nil), sd.copies[k].Tuple...)
	vals[sd.line] = repro.Int(line)
	return vals
}

func factKey(relation string, tuple []any) string { return relation + tupleKey(tuple) }

func tupleKey(tuple []any) string {
	// Wire tuples hold strings, integers and json.Numbers, which always
	// marshal.
	b, _ := json.Marshal(tuple)
	return string(b)
}

// checkServed compares an explain response with the reference: the same
// tuples, all exact, each listing the reference's top facts (all of them when
// top ≤ 0) with big.Rat-identical values.
func checkServed(body []byte, ref servedRef, top int) error {
	var resp struct {
		Tuples []struct {
			Tuple  []any  `json:"tuple"`
			Method string `json:"method"`
			Facts  []struct {
				Relation string `json:"relation"`
				Tuple    []any  `json:"tuple"`
				ValueRat string `json:"value_rat"`
			} `json:"facts"`
		} `json:"tuples"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return fmt.Errorf("bad explain response: %w", err)
	}
	if len(resp.Tuples) != len(ref) {
		return fmt.Errorf("%d tuples, want %d", len(resp.Tuples), len(ref))
	}
	for _, t := range resp.Tuples {
		key := tupleKey(t.Tuple)
		rt, ok := ref[key]
		switch {
		case !ok:
			return fmt.Errorf("tuple %s is not in the reference", key)
		case t.Method != "exact":
			return fmt.Errorf("tuple %s answered %q, want exact", key, t.Method)
		}
		want := rt.ranking
		if top > 0 && top < len(want) {
			want = want[:top]
		}
		if len(t.Facts) != len(want) {
			return fmt.Errorf("tuple %s lists %d facts, want %d", key, len(t.Facts), len(want))
		}
		for j, f := range t.Facts {
			fk := factKey(f.Relation, f.Tuple)
			if fk != want[j] {
				return fmt.Errorf("tuple %s ranks %s at %d, want %s", key, fk, j, want[j])
			}
			if f.ValueRat != rt.values[fk] {
				return fmt.Errorf("tuple %s: %s = %s, want %s", key, fk, f.ValueRat, rt.values[fk])
			}
		}
	}
	return nil
}

var (
	elapsedField = []byte(`"elapsed_ms": `)
	methodField  = []byte(`"method": `)
	exactField   = []byte(`"method": "exact"`)
)

// elapsedMs reads an explain response's top-level elapsed_ms, which comes
// before the tuples and their own elapsed_ms fields, without decoding the
// rest of the body.
func elapsedMs(body []byte) (float64, error) {
	i := bytes.Index(body, elapsedField)
	if i < 0 {
		return 0, errors.New("explain response lacks elapsed_ms")
	}
	i += len(elapsedField)
	n := bytes.IndexAny(body[i:], ",\n")
	if n < 0 {
		return 0, errors.New("explain response is cut short")
	}
	v, err := strconv.ParseFloat(string(body[i:i+n]), 64)
	if err != nil {
		return 0, fmt.Errorf("bad elapsed_ms: %w", err)
	}
	return v, nil
}

// daemon is a running shapleyd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon starts shapleyd on a free loopback port and waits until it is
// healthy.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no shapleyd binary (-shapleyd)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-datasets", "tpch", "-scale", strconv.Itoa(serveScale), "-log-level", "warn")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("shapleyd exited before it was healthy: %v", err)
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, errors.New("shapleyd was not healthy within a minute")
}

// stop sends SIGTERM, which drains and exits, and waits for the exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("shapleyd did not exit within 30s of SIGTERM")
	}
}

// client is one closed-loop HTTP client with its own keep-alive connection;
// it never retries.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends a JSON body and returns the status and the response body, which
// stays valid until the next post.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) update(base string, req wire.UpdateRequest) (*wire.UpdateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	status, raw, err := c.post(base+"/v1/update", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("update answered %d: %s", status, raw)
	}
	var resp wire.UpdateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("bad update response: %w", err)
	}
	return &resp, nil
}

// serveSetup is one set-up of serve-mixed: a healthy daemon, the local
// reference and a warm session pool.
type serveSetup struct {
	daemon *daemon
	data   *serveData
}

// setUpServe starts the daemon, computes the reference, and warms the pool:
// each client explains each hot query once, checked against the reference.
func setUpServe(ctx context.Context, cfg config) (*serveSetup, error) {
	dm, err := startDaemon(cfg.shapleyd)
	if err != nil {
		return nil, err
	}
	su := &serveSetup{daemon: dm}
	if err := su.warm(ctx); err != nil {
		dm.stop()
		return nil, err
	}
	return su, nil
}

func (su *serveSetup) warm(ctx context.Context) error {
	data, err := newServeData(ctx)
	if err != nil {
		return err
	}
	su.data = data
	for c := 0; c < serveClients; c++ {
		cl := newClient()
		for qi, name := range hotQueries {
			status, body, err := cl.post(su.daemon.base+"/v1/explain", data.bodies[qi])
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("answered %d: %s", status, body)
			}
			if err == nil {
				err = checkServed(body, data.ref[qi], serveTop)
			}
			if err != nil {
				cl.close()
				return fmt.Errorf("warm-up explain of %s: %w", name, err)
			}
		}
		cl.close()
	}
	return nil
}

type opKind int

const (
	opExplain opKind = iota
	opInsert
	opDelete
)

// servedOp is one request of a serve workload and what came back.
type servedOp struct {
	client, index int
	kind          opKind
	query         int
	copy          int   // insert: which lineitem is copied
	line          int64 // insert: the copy's line number
	undo          int   // delete: index of the client's insert it undoes
	start, lat    time.Duration
	ok            bool
	bytes         int
	elapsedMs     float64
	tuples, exact int
	batch         int
	id            int64 // insert: the copy's fact ID in the daemon
	// after marks the delete of a copy still held when the window ended;
	// it is checked but not timed.
	after bool
}

// runServe runs serve-mixed against a shapleyd of this checkout.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var su *serveSetup
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		prev := su
		if prev != nil {
			if err := prev.daemon.stop(); err != nil {
				return nil, fmt.Errorf("stopping shapleyd: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		next, err := setUpServe(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if prev != nil && !reflect.DeepEqual(prev.data.ref, next.data.ref) {
			out.problem("set-ups disagree on the reference")
		}
		su = next
	}
	out.metrics["setup_s"] = median(setupTimes)

	ops := driveServe(cfg, su, out)
	rss, err := peakRSSMB(strconv.Itoa(su.daemon.cmd.Process.Pid))
	if err != nil {
		out.problem("peak RSS of shapleyd: %v", err)
	}
	out.metrics["rss_peak_mb"] = rss
	if err := su.daemon.stop(); err != nil {
		out.problem("stopping shapleyd: %v", err)
	}
	if cfg.trace {
		if err := replayServe(ctx, cfg, su.data, ops, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driveServe runs the timed window with serveClients closed-loop clients,
// then deletes the copies the clients still hold and checks the served
// values against the reference. It sets the end-to-end metrics and the
// per-layer metrics the responses carry, and returns every request in the
// window.
func driveServe(cfg config, su *serveSetup, out *outcome) []servedOp {
	perClient := make([][]servedOp, serveClients)
	fails := make([][]error, serveClients)
	var explained atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perClient[c], fails[c] = su.client(cfg, c, t0, &explained)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	var ops []servedOp
	for c := range perClient {
		ops = append(ops, perClient[c]...)
		out.attempted += len(perClient[c])
		for _, err := range fails[c] {
			out.opFailed(err)
		}
	}
	// The update traffic was net-zero, so every answer must equal the
	// reference again, in full.
	cl := newClient()
	for qi, name := range hotQueries {
		body, _ := json.Marshal(wire.ExplainRequest{Dataset: "tpch", Query: su.data.text[qi]})
		status, raw, err := cl.post(su.daemon.base+"/v1/explain", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("answered %d", status)
		}
		if err == nil {
			err = checkServed(raw, su.data.ref[qi], 0)
		}
		if err != nil {
			out.problem("final explain of %s: %v", name, err)
		}
	}
	cl.close()

	var explains, updates []float64
	var pipeline, overhead, kb, batches float64
	tuples, exact, inWindow := 0, 0, 0
	for _, op := range ops {
		if op.after {
			continue
		}
		switch op.kind {
		case opExplain:
			explains = append(explains, ms(op.lat))
			pipeline += op.elapsedMs
			overhead += ms(op.lat) - op.elapsedMs
			kb += float64(op.bytes) / 1024
			tuples += op.tuples
			exact += op.exact
		default:
			updates = append(updates, ms(op.lat))
			batches += float64(op.batch)
		}
		inWindow++
	}
	out.percentiles("explain", explains)
	out.metrics["ops_per_s"] = float64(inWindow) / wall.Seconds()
	out.metrics["exact_ratio"] = float64(exact) / float64(max(tuples, 1))
	n := float64(max(len(explains), 1))
	out.metrics["server.pipeline_ms"] = pipeline / n
	out.metrics["server.overhead_ms"] = overhead / n
	out.metrics["wire.response_kb"] = kb / n
	out.metrics["server.update_batch"] = batches / float64(max(len(updates), 1))
	sort.Float64s(updates)
	out.metrics["server.update_p50_ms"], _ = percentile(updates, 50)
	out.metrics["server.update_p97_ms"], _ = percentile(updates, tailPercentile)
	return ops
}

// client runs one closed-loop client until the window ends and the clients
// together have made cfg.minOps explains, then deletes the copy it still
// holds. Its traffic — which query, whether to update, which lineitem to
// copy — comes from the seed alone.
func (su *serveSetup) client(cfg config, c int, t0 time.Time, explained *atomic.Int64) ([]servedOp, []error) {
	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c)))
	cl := newClient()
	defer cl.close()
	var ops []servedOp
	var fails []error
	held := -1 // index of the insert whose copy this client holds
	for i := 0; time.Since(t0) < cfg.window || explained.Load() < int64(cfg.minOps); i++ {
		op := servedOp{client: c, index: i, query: rng.Intn(len(hotQueries)), undo: -1}
		if i%updateEvery == updateEvery-1 {
			if held < 0 {
				op.kind, op.copy, op.line = opInsert, rng.Intn(len(su.data.copies)), int64(1_000_000*(c+1)+i)
			} else {
				op.kind, op.undo = opDelete, held
			}
		}
		if err := su.do(cl, &op, ops, t0); err != nil {
			fails = append(fails, fmt.Errorf("client %d request %d: %w", c, i, err))
		}
		switch {
		case op.kind == opExplain:
			explained.Add(1)
		case op.kind == opInsert && op.ok:
			held = i
		case op.kind == opDelete && op.ok:
			held = -1
		}
		ops = append(ops, op)
	}
	if held >= 0 {
		op := servedOp{client: c, index: len(ops), kind: opDelete, undo: held, after: true}
		if err := su.do(cl, &op, ops, t0); err != nil {
			fails = append(fails, fmt.Errorf("client %d deleting its last copy: %w", c, err))
		}
		ops = append(ops, op)
	}
	return ops, fails
}

// do sends one request and checks the answer. An explain, taken while copies
// come and go, must list every tuple of its query; the values are checked
// once the copies are gone.
func (su *serveSetup) do(cl *client, op *servedOp, done []servedOp, t0 time.Time) error {
	sd, base := su.data, su.daemon.base
	start := time.Now()
	op.start = start.Sub(t0)
	switch op.kind {
	case opExplain:
		status, body, err := cl.post(base+"/v1/explain", sd.bodies[op.query])
		op.lat = time.Since(start)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("explain answered %d: %s", status, body)
		}
		op.bytes = len(body)
		op.tuples = bytes.Count(body, methodField)
		op.exact = bytes.Count(body, exactField)
		if op.elapsedMs, err = elapsedMs(body); err != nil {
			return err
		}
		if op.tuples != len(sd.ref[op.query]) {
			return fmt.Errorf("explain of %s answered %d tuples, want %d", hotQueries[op.query], op.tuples, len(sd.ref[op.query]))
		}
	case opInsert:
		vals := sd.copyValues(op.copy, op.line)
		raw := make([]json.RawMessage, len(vals))
		for i, v := range vals {
			raw[i], _ = json.Marshal(wire.EncodeValue(v))
		}
		resp, err := cl.update(base, wire.UpdateRequest{
			Dataset: "tpch", Query: sd.text[op.query],
			Inserts: []wire.InsertSpec{{Relation: "lineitem", Endogenous: sd.copies[op.copy].Endogenous, Values: raw}},
		})
		op.lat = time.Since(start)
		if err != nil {
			return err
		}
		if len(resp.InsertedIDs) != 1 {
			return fmt.Errorf("insert returned %d IDs", len(resp.InsertedIDs))
		}
		op.id, op.batch = resp.InsertedIDs[0], resp.BatchRequests
	case opDelete:
		id := done[op.undo].id
		resp, err := cl.update(base, wire.UpdateRequest{
			Dataset: "tpch", Query: sd.text[op.query],
			Deletes: []wire.DeleteSpec{{ID: id}},
		})
		op.lat = time.Since(start)
		if err != nil {
			return err
		}
		if len(resp.DeletedIDs) != 1 || resp.DeletedIDs[0] != id {
			return fmt.Errorf("delete of %d reported %v", id, resp.DeletedIDs)
		}
		op.batch = resp.BatchRequests
	}
	op.ok = true
	return nil
}

// Layers timed by the serve replay.
const (
	layerExplain = "repro.explain"
	layerApply   = "repro.apply"
	layerEncode  = "wire.encode"
)

// replayServe runs the window's requests again in the order they started,
// from one caller and for about as long as the window: one repro.Session per
// hot query, as the daemon's pool opens them, and wire.EncodeExplanations
// for every answer. It reads the sessions' and the compile cache's counters
// around the replay, and checks the replayed answers against the untraced
// ones and, at the end, against the reference.
func replayServe(ctx context.Context, cfg config, sd *serveData, ops []servedOp, out *outcome) error {
	sess := make([]*repro.Session, len(sd.queries))
	for i, q := range sd.queries {
		s, err := repro.Open(sd.d, q, repro.Options{Timeout: daemonTimeout})
		if err != nil {
			return err
		}
		defer s.Close()
		sess[i] = s
		if _, err := s.Explain(ctx); err != nil {
			return err
		}
	}
	grounds := func() (n int64) {
		for _, s := range sess {
			st, _ := s.Stats()
			n += st.Grounds
		}
		return n
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })

	type key struct{ client, index int }
	copies := make(map[key]repro.FactID)
	var m0, m1 runtime.MemStats
	g0, c0 := grounds(), repro.CompileCacheStats()
	runtime.ReadMemStats(&m0)
	totals := make(map[string]float64)
	var other, wall float64
	var enc bytes.Buffer
	replayed, explains, updates, answers := 0, 0, 0, 0
	start := time.Now()
	for _, op := range ops {
		if time.Since(start) >= cfg.window {
			break
		}
		if !op.ok || op.after {
			continue
		}
		s := sess[op.query]
		tr := newOpTrace()
		var err error
		switch op.kind {
		case opExplain:
			t := tr.now()
			var es []repro.TupleExplanation
			es, err = s.ExplainWithBudget(ctx, repro.ExplainBudget{})
			tr.add(layerExplain, t)
			if err == nil {
				t = tr.now()
				enc.Reset()
				je := json.NewEncoder(&enc)
				je.SetIndent("", "  ")
				err = je.Encode(wire.ExplainResponse{Dataset: "tpch", Query: sd.text[op.query], Pooled: true, Tuples: wire.EncodeExplanations(sd.d, es, serveTop)})
				tr.add(layerEncode, t)
			}
			tr.finish()
			exact := 0
			for i := range es {
				if es[i].Method == repro.MethodExact {
					exact++
				}
			}
			if err == nil && (len(es) != op.tuples || exact != op.exact) {
				err = fmt.Errorf("%d tuples, %d exact; the daemon answered %d, %d exact", len(es), exact, op.tuples, op.exact)
			}
			explains++
			answers += len(es)
		case opInsert:
			t := tr.now()
			var fs []*repro.Fact
			fs, err = s.Apply([]repro.Mutation{repro.InsertOp("lineitem", sd.copies[op.copy].Endogenous, sd.copyValues(op.copy, op.line)...)})
			tr.add(layerApply, t)
			tr.finish()
			if err == nil {
				copies[key{op.client, op.index}] = fs[0].ID
			}
			updates++
		case opDelete:
			k := key{op.client, op.undo}
			t := tr.now()
			_, err = s.Apply([]repro.Mutation{repro.DeleteOp(copies[k])})
			tr.add(layerApply, t)
			tr.finish()
			delete(copies, k)
			updates++
		}
		out.attempted++
		if err != nil {
			out.opFailed(fmt.Errorf("replay of client %d request %d: %w", op.client, op.index, err))
			continue
		}
		shares, rest := tr.attribute()
		for layer, v := range shares {
			totals[layer] += v
		}
		other += rest
		wall += ms(tr.wall)
		replayed++
	}
	runtime.ReadMemStats(&m1)
	g1, c1 := grounds(), repro.CompileCacheStats()

	for _, id := range copies {
		if _, err := sess[0].Apply([]repro.Mutation{repro.DeleteOp(id)}); err != nil {
			out.problem("replay: deleting a copy: %v", err)
		}
	}
	for i, s := range sess {
		es, err := s.Explain(ctx)
		if err == nil {
			var body []byte
			body, err = json.Marshal(wire.ExplainResponse{Tuples: wire.EncodeExplanations(sd.d, es, 0)})
			if err == nil {
				err = checkServed(body, sd.ref[i], 0)
			}
		}
		if err != nil {
			out.problem("replay: final explain of %s: %v", hotQueries[i], err)
		}
	}
	if replayed == 0 {
		out.problem("no request was replayed")
		return nil
	}

	perOp := func(x float64) float64 { return x / float64(replayed) }
	ratio := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	cache := c1.Sub(c0)
	out.metrics["engine.answers"] = ratio(float64(answers), explains)
	out.metrics["repro.explain_ms"] = ratio(totals[layerExplain], explains)
	out.metrics["repro.apply_ms"] = ratio(totals[layerApply], updates)
	out.metrics["wire.encode_ms"] = ratio(totals[layerEncode], explains)
	out.metrics["repro.other_ms"] = perOp(other)
	out.metrics["repro.regrounds_per_op"] = perOp(float64(g1 - g0))
	out.metrics["repro.recomputed_tuples_per_op"] = perOp(float64(cache.Hits + cache.Misses))
	out.metrics["dnnf.cache_hit_ratio"] = cache.HitRate()
	out.metrics["dnnf.invalidations_per_update"] = ratio(float64(cache.Invalidations), updates)
	out.metrics["go.alloc_kb_per_op"] = perOp(float64(m1.TotalAlloc-m0.TotalAlloc) / 1024)
	out.metrics["bench.replay_op_ms"] = perOp(wall)
	// The daemon's own time per explain, taken by two clients at once,
	// against the replay's, taken by one.
	out.metrics["bench.trace_overhead_ms"] = out.metrics["repro.explain_ms"] - out.metrics["server.pipeline_ms"]
	return nil
}
