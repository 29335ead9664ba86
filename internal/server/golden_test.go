package server

import (
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/flights"
	"repro/internal/wire"
)

// goldenExplainPath holds the pinned /v1/explain response bodies of
// TestExplainWireGolden, one "== shape" section per request shape.
const goldenExplainPath = "testdata/explain_golden.txt"

// volatileField matches the response fields that differ run to run: the
// request and per-tuple wall clocks and the server-minted request ID.
var volatileField = regexp.MustCompile(`("elapsed_ms": )-?[0-9][0-9.eE+-]*|("request_id": )"[^"]*"`)

// zeroVolatile rewrites every volatile field of a response body to its zero
// value, leaving all other bytes untouched.
func zeroVolatile(body string) string {
	return volatileField.ReplaceAllStringFunc(body, func(m string) string {
		if strings.HasPrefix(m, `"elapsed_ms"`) {
			return `"elapsed_ms": 0`
		}
		return `"request_id": ""`
	})
}

// goldenExplainBodies serves every request shape whose answer is
// deterministic on a fresh server and returns the first response of each,
// volatile fields zeroed, as "== shape" sections. Only the first response
// counts: a later one may come from a session whose background upgrade has
// since replaced an approximate answer with the exact one.
func goldenExplainBodies(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	for _, sh := range goldenShapes() {
		url, _, _ := newTestServer(t, sh.cfg)
		status, raw := postJSON(t, url+"/v1/explain", sh.req, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sh.name, status, raw)
		}
		out.WriteString("== " + sh.name + "\n" + zeroVolatile(raw))
	}
	return out.String()
}

// goldenShape is one pinned request shape: the server configuration and
// the explain request sent to a fresh server of it.
type goldenShape struct {
	name string
	cfg  Config
	req  wire.ExplainRequest
}

func goldenShapes() []goldenShape {
	q := flights.Query().String()
	starved := Config{Options: repro.Options{
		Budget: repro.ExplainBudget{MaxNodes: 1, MinSamples: 128},
	}}
	return []goldenShape{
		{"unbudgeted", Config{},
			wire.ExplainRequest{Dataset: "flights", Query: q}},
		{"approximate", Config{},
			wire.ExplainRequest{Dataset: "flights", Query: q, Mode: "approximate", MinSamples: 128, Seed: 7}},
		{"starved-pooled", starved,
			wire.ExplainRequest{Dataset: "flights", Query: q}},
		{"starved-exact", starved,
			wire.ExplainRequest{Dataset: "flights", Query: q, Mode: "exact"}},
		{"max-nodes-proxy", Config{Options: repro.Options{MaxNodes: 1}},
			wire.ExplainRequest{Dataset: "flights", Query: q}},
	}
}

// TestExplainWireGolden pins the /v1/explain wire bytes of every
// deterministic request shape — unbudgeted, per-request approximate,
// starved budget, mode exact on a starved server, and a node cap that
// degrades every tuple to CNF Proxy — against testdata/explain_golden.txt,
// byte for byte.
func TestExplainWireGolden(t *testing.T) {
	want, err := os.ReadFile(goldenExplainPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenExplainBodies(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("wire bytes differ from %s at line %d:\n got: %q\nwant: %q",
				goldenExplainPath, i+1, g, w)
		}
	}
}
