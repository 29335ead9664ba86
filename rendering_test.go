package repro

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/tpch"
)

// TestRenderingMemo checks the rendering memo a session's cached
// explanations share: a second call at a top listing the same facts, on the
// same or a later copy, returns the kept bytes without rendering; another
// cut renders and replaces them; renderings over maxRenderingBytes and
// explanations no session caches are rendered every time; a recomputed
// tuple's explanation starts without the old bytes; and concurrent calls
// on one explanation all get its bytes (run it under -race).
func TestRenderingMemo(t *testing.T) {
	ctx := context.Background()
	d := tpch.Generate(tpch.DefaultConfig())
	var q *Query
	for _, bq := range tpch.Queries() {
		if bq.Name == "q10" {
			q = bq.Q
		}
	}
	s, err := Open(d, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	es, err := s.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pad := 0
	render := func(dst []byte, e *TupleExplanation, top int) ([]byte, error) {
		return fmt.Appendf(dst, "%v top %d %s", e.Tuple, top, strings.Repeat("x", pad)), nil
	}
	rendering := func(e *TupleExplanation, top int) (string, bool) {
		t.Helper()
		b, hit, err := e.Rendering(top, render)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), hit
	}
	e := &es[0]
	if len(e.Ranking) < 2 {
		t.Fatalf("tuple %v ranks %d facts; the test needs 2", e.Tuple, len(e.Ranking))
	}
	first, hit := rendering(e, 1)
	if hit {
		t.Fatal("a fresh explanation's first rendering was kept")
	}
	if got, hit := rendering(e, 1); !hit || got != first {
		t.Fatalf("second rendering at top 1: %q, kept %v; want %q kept", got, hit, first)
	}
	again, err := s.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, hit := rendering(&again[0], 1); !hit || got != first {
		t.Fatalf("a later explain's copy rendered %q, kept %v; want %q kept", got, hit, first)
	}
	all, _ := rendering(e, 0)
	if got, hit := rendering(e, len(e.Ranking)+5); !hit || got != all {
		t.Errorf("a top past the ranking rendered %q, kept %v; want top 0's %q kept", got, hit, all)
	}
	if _, hit := rendering(e, 1); hit {
		t.Error("top 1 was still kept after top 0 replaced it")
	}

	pad = maxRenderingBytes
	rendering(e, 2)
	if _, hit := rendering(e, 2); hit {
		t.Error("a rendering over maxRenderingBytes was kept")
	}
	pad = 0
	plain := *e
	plain.rendered = nil
	rendering(&plain, 2)
	if _, hit := rendering(&plain, 2); hit {
		t.Error("an explanation without a memo kept its rendering")
	}

	// Deleting a ranked fact recomputes the tuple: its new explanation
	// renders afresh.
	rendering(e, 1)
	if err := s.Delete(e.Ranking[len(e.Ranking)-1]); err != nil {
		t.Fatal(err)
	}
	after, err := s.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].Tuple.Equal(e.Tuple) {
			if _, hit := rendering(&after[i], 1); hit {
				t.Error("a recomputed tuple served the bytes kept before the write")
			}
		}
	}

	// Tops that list the same facts render the same bytes, so this
	// renderer writes the facts a top lists.
	listed := func(e *TupleExplanation, top int) []FactID {
		if top > 0 && top < len(e.Ranking) {
			return e.Ranking[:top]
		}
		return e.Ranking
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := after[0]
			for i := range 50 {
				top := (g + i) % 3
				b, _, err := e.Rendering(top, func(dst []byte, e *TupleExplanation, top int) ([]byte, error) {
					return fmt.Appendf(dst, "%v", listed(e, top)), nil
				})
				if want := fmt.Sprint(listed(&e, top)); err != nil || string(b) != want {
					t.Errorf("concurrent rendering at top %d: %q, %v; want %q", top, b, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
