package bench

import (
	"context"
	"fmt"
	"math/big"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/imdb"
	"repro/internal/tpch"
)

// smallOptions keeps harness tests fast.
func smallOptions() Options {
	o := DefaultOptions()
	o.TPCH = tpch.Config{Customers: 8, OrdersPerCustomer: 2, LinesPerOrder: 3, Parts: 12, Suppliers: 5, Seed: 42}
	o.IMDB = imdb.Config{Movies: 15, People: 20, Companies: 6, Keywords: 10, CastPerMovie: 3, Seed: 7}
	o.Timeout = 2 * time.Second
	o.MaxTuplesPerQuery = 30
	return o
}

var (
	corpusOnce sync.Once
	corpusVal  *Corpus
	corpusErr  error
)

// runSmallCorpus shares one corpus run across the harness tests; the run is
// deterministic and read-only afterwards.
func runSmallCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		corpusVal, corpusErr = RunCorpus(context.Background(), smallOptions())
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusVal
}

func TestRunCorpusProducesAllQueries(t *testing.T) {
	c := runSmallCorpus(t)
	if len(c.Runs) != len(tpch.Queries())+len(imdb.Queries()) {
		t.Fatalf("runs = %d, want %d", len(c.Runs), len(tpch.Queries())+len(imdb.Queries()))
	}
	totalTuples := 0
	success := 0
	for _, r := range c.Runs {
		totalTuples += len(r.Tuples)
		for _, tr := range r.Tuples {
			if tr.Success {
				success++
				if tr.Values == nil {
					t.Fatalf("%s/%s: success without values", tr.Dataset, tr.Query)
				}
				// Efficiency axiom sanity: for monotone SPJU lineage with a
				// non-empty derivation, Σ Shapley = 1.
				if tr.NumFacts > 0 && tr.Values.Sum().Cmp(big.NewRat(1, 1)) != 0 {
					t.Errorf("%s/%s %v: Σ Shapley = %v, want 1",
						tr.Dataset, tr.Query, tr.Tuple, tr.Values.Sum())
				}
			}
		}
	}
	if totalTuples == 0 {
		t.Fatal("corpus produced no output tuples; generator or queries broken")
	}
	if success == 0 {
		t.Fatal("no tuple succeeded exactly")
	}
	t.Logf("corpus: %d tuples, %d exact successes", totalTuples, success)
}

func TestTable1Renders(t *testing.T) {
	c := runSmallCorpus(t)
	out := Table1(c)
	for _, want := range []string{"TPC-H", "IMDB", "q3", "8d", "Success"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestCompareInexactAndTable2(t *testing.T) {
	c := runSmallCorpus(t)
	recs := CompareInexact(c, []int{10, 20}, 99)
	if len(recs) == 0 {
		t.Fatal("no comparison records")
	}
	// Every successful multi-fact tuple yields 2 methods × 2 budgets + 1
	// proxy record.
	want := len(c.SuccessfulTuples()) * 5
	if len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}
	table := Table2(recs, 20)
	for _, wantStr := range []string{"Monte Carlo", "Kernel SHAP", "CNF Proxy", "nDCG", "Precision@10"} {
		if !strings.Contains(table, wantStr) {
			t.Errorf("Table 2 missing %q:\n%s", wantStr, table)
		}
	}
	// Proxy must be fast: median under 50 ms at this scale.
	px := FilterRecords(recs, MethodProxy, 0)
	for _, r := range px {
		if r.Seconds > 0.5 {
			t.Errorf("proxy took %v s on %s/%s — far slower than expected", r.Seconds, r.Dataset, r.Query)
		}
	}
}

func TestFigure4Renders(t *testing.T) {
	c := runSmallCorpus(t)
	out := Figure4(c)
	for _, want := range []string{"#facts", "#CNF clauses", "d-DNNF size", "KC p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 4 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6And7Render(t *testing.T) {
	c := runSmallCorpus(t)
	recs := CompareInexact(c, []int{10, 20}, 7)
	f6 := Figure6(recs, []int{10, 20})
	if !strings.Contains(f6, MethodProxy) || !strings.Contains(f6, "nDCG") {
		t.Errorf("Figure 6 malformed:\n%s", f6)
	}
	f7 := Figure7(recs, 20)
	if !strings.Contains(f7, "#facts bin") {
		t.Errorf("Figure 7 malformed:\n%s", f7)
	}
}

func TestFigure8Monotone(t *testing.T) {
	c := runSmallCorpus(t)
	timeouts := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, 2 * time.Second}
	points := Figure8(c, timeouts)
	if len(points) != len(timeouts) {
		t.Fatalf("points = %d, want %d", len(points), len(timeouts))
	}
	// Success rate must be non-decreasing in the timeout, per dataset.
	for ds := range points[0].SuccessRate {
		for i := 1; i < len(points); i++ {
			if points[i].SuccessRate[ds]+1e-12 < points[i-1].SuccessRate[ds] {
				t.Errorf("%s: success rate decreased from %v to %v at timeout %v",
					ds, points[i-1].SuccessRate[ds], points[i].SuccessRate[ds], points[i].Timeout)
			}
		}
	}
	out := RenderFigure8(points)
	if !strings.Contains(out, "Timeout") {
		t.Errorf("Figure 8 malformed:\n%s", out)
	}
}

func TestRunScaling(t *testing.T) {
	base := tpch.Config{Customers: 8, OrdersPerCustomer: 2, LinesPerOrder: 3, Parts: 12, Suppliers: 5, Seed: 42}
	points, err := RunScaling(context.Background(), base, []float64{0.5, 1.0}, []string{"q10", "q18"}, 2,
		core.PipelineOptions{CompileTimeout: 2 * time.Second, ShapleyTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no scaling points")
	}
	out := RenderScaling(points)
	if !strings.Contains(out, "q10") && !strings.Contains(out, "q18") {
		t.Errorf("scaling report missing queries:\n%s", out)
	}
}

// goldenCachePath pins TestCanonicalCacheGolden's per-query compile-cache
// counters.
const goldenCachePath = "testdata/cache_golden.txt"

// TestCanonicalCacheGolden pins how often canonical keying serves a
// corpus tuple's compilation from another tuple's circuit: the identical
// hits, renamed hits and misses of every query of the small corpus, with
// a 256-entry cache per suite, must match testdata/cache_golden.txt
// exactly. There is no timeout, so every tuple compiles and the counts do
// not depend on the machine's speed.
func TestCanonicalCacheGolden(t *testing.T) {
	opts := smallOptions()
	opts.CacheSize = 256
	opts.Timeout = 0
	c, err := RunCorpus(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var identical, renamed, misses int64
	for _, r := range c.Runs {
		st := r.CacheStats
		got = append(got, fmt.Sprintf("%s/%s identical=%d renamed=%d misses=%d",
			r.Dataset, r.Name, st.IdenticalHits, st.RenamedHits, st.Misses))
		identical, renamed, misses = identical+st.IdenticalHits, renamed+st.RenamedHits, misses+st.Misses
	}
	got = append(got, fmt.Sprintf("total identical=%d renamed=%d misses=%d", identical, renamed, misses))

	raw, err := os.ReadFile(goldenCachePath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, %s has %d:\n%s", len(got), goldenCachePath, len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", goldenCachePath, i+1, got[i], want[i])
		}
	}
}

func TestBinLabels(t *testing.T) {
	cases := map[int]string{1: "1-10", 10: "1-10", 11: "11-25", 200: "101-200", 399: "201-400"}
	for v, want := range cases {
		if got := binLabel(v); got != want {
			t.Errorf("binLabel(%d) = %q, want %q", v, got, want)
		}
	}
}
