package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/wire"
)

// FuzzExplainRequest feeds arbitrary bytes through the explain handler's
// body decoding and budget mapping. Neither may panic; every budget that
// requestBudget accepts must pass repro.ValidateBudget (else the request
// would fail later as a 500 for its own bad input), and a positive
// budget_ms must arm a positive deadline (else the budget silently turns
// off). Seeded with the pinned wire shapes, the budget tests' requests and
// a body carrying the retired no_pool field.
func FuzzExplainRequest(f *testing.F) {
	var seeds []wire.ExplainRequest
	for _, sh := range goldenShapes() {
		seeds = append(seeds, sh.req)
	}
	for _, c := range badBudgets() {
		seeds = append(seeds, c.req)
	}
	seeds = append(seeds, tinyBudgetRequests()...)
	for _, req := range seeds {
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// A body carrying the retired no_pool field, which decoding rejects as
	// an unknown field.
	f.Add([]byte(`{"dataset": "flights", "query": "q() :- Flights(x, y)", "no_pool": true}`))
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.ExplainRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
		if !decodeBody(httptest.NewRecorder(), r, &req) {
			return
		}
		b, err := s.requestBudget(req)
		if err != nil {
			return
		}
		if err := repro.ValidateBudget(b); err != nil {
			t.Fatalf("requestBudget accepted %+v as an invalid budget: %v", req, err)
		}
		if req.BudgetMs > 0 && b.Deadline <= 0 {
			t.Fatalf("budget_ms %v armed deadline %v, want > 0", req.BudgetMs, b.Deadline)
		}
	})
}
