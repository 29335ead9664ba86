package dnnf

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cnf"
)

// singleComponentCNF builds one connected random width-3 block: the shape
// that defeats component fan-out and that speculation and portfolio mode
// exist for.
func singleComponentCNF(rng *rand.Rand, vars, clauses int) *cnf.Formula {
	return blockCNF(rng, 1, vars, clauses, func() int { return 3 })
}

// hardSingleComponentCNF picks a clause/variable ratio of ~3.5 — dense
// enough for deep search, sparse enough not to refute in a handful of
// decisions (random 3-CNF above ratio ~4.3 is almost surely UNSAT and dies
// at the first conflict).
func hardSingleComponentCNF(rng *rand.Rand, vars int) *cnf.Formula {
	return singleComponentCNF(rng, vars, vars*7/2)
}

// TestSpeculativeCompileMatchesSequential is the semantic-identity property
// for the new parallelism sources: across random single- and multi-component
// CNFs and worker counts, speculation, portfolio mode, and their combination
// produce circuits with the same model count and pointwise evaluation as the
// sequential compiler. Run under -race in CI, this also exercises the
// concurrent branch bookkeeping.
func TestSpeculativeCompileMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	variants := []Options{
		{Speculate: true},
		{Portfolio: true},
		{Speculate: true, Portfolio: true},
	}
	for trial := 0; trial < 20; trial++ {
		var f *cnf.Formula
		if trial%2 == 0 {
			f = singleComponentCNF(rng, 9, 24)
		} else {
			f = multiComponentCNF(rng, 1+rng.Intn(3), 4, 6)
		}
		universe := f.Vars()
		serial, _, err := Compile(context.Background(), f, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := CountModels(serial, universe)
		for _, base := range variants {
			for _, workers := range []int{1, 2, 4, 8} {
				opts := base
				opts.Workers = workers
				par, _, err := Compile(context.Background(), f, opts)
				if err != nil {
					t.Fatalf("trial %d %+v: %v", trial, opts, err)
				}
				if err := Validate(par, len(universe)); err != nil {
					t.Fatalf("trial %d %+v: %v", trial, opts, err)
				}
				if got := CountModels(par, universe); got.Cmp(want) != 0 {
					t.Fatalf("trial %d %+v: model count %v, want %v", trial, opts, got, want)
				}
				if len(universe) <= 12 {
					assign := make(map[int]bool)
					for mask := 0; mask < 1<<len(universe); mask++ {
						for i, v := range universe {
							assign[v] = mask&(1<<i) != 0
						}
						if Eval(par, assign) != Eval(serial, assign) {
							t.Fatalf("trial %d %+v: circuits diverge at %v", trial, opts, assign)
						}
					}
				}
			}
		}
	}
}

// TestSpeculationEngages pins that the speculative path actually runs on the
// instances it targets (a hard single-component CNF with idle workers) — a
// guard against the guard conditions silently turning the feature off.
func TestSpeculationEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	f := hardSingleComponentCNF(rng, 40)
	_, stats, err := Compile(context.Background(), f, Options{Workers: 4, Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpeculatedDecisions == 0 {
		t.Fatalf("no decisions speculated on a single-component instance at workers=4: %+v", stats)
	}
}

// TestPortfolioEngagesAndReportsWinner checks the race actually runs at
// workers ≥ 2, reports a parseable winner, and yields the sequential model
// count.
func TestPortfolioEngagesAndReportsWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	f := singleComponentCNF(rng, 12, 40)
	universe := f.Vars()
	serial, _, err := Compile(context.Background(), f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := CountModels(serial, universe)
	root, stats, err := Compile(context.Background(), f, Options{Workers: 4, Portfolio: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PortfolioRacers < 2 {
		t.Fatalf("portfolio did not engage: %+v", stats)
	}
	if _, err := ParseVarOrder(stats.PortfolioWinner); err != nil {
		t.Fatalf("unparseable winner %q", stats.PortfolioWinner)
	}
	if got := CountModels(root, universe); got.Cmp(want) != 0 {
		t.Fatalf("portfolio model count %v, want %v", got, want)
	}
}

// TestSpeculativeNodeBudgetIdentical pins the MaxNodes contract: budget
// exhaustion inside a speculative branch (and inside every portfolio racer)
// surfaces as the same ErrNodeBudget the sequential compiler reports, never
// as a cancellation artifact of the sibling teardown.
func TestSpeculativeNodeBudgetIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	f := hardSingleComponentCNF(rng, 40)
	for _, opts := range []Options{
		{Workers: 1, MaxNodes: 3},
		{Workers: 4, MaxNodes: 3, Speculate: true},
		{Workers: 4, MaxNodes: 3, Portfolio: true},
		{Workers: 8, MaxNodes: 3, Speculate: true, Portfolio: true},
	} {
		_, _, err := Compile(context.Background(), f, opts)
		if !errors.Is(err, ErrNodeBudget) {
			t.Fatalf("%+v: err = %v, want ErrNodeBudget", opts, err)
		}
	}
}

// TestSpeculativeCallerCancellation pins that caller cancellation mid-compile
// is an error (the caller's context error), not a silent fallback — for the
// plain, speculative, and portfolio compilers alike.
func TestSpeculativeCallerCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	f := hardSingleComponentCNF(rng, 44)
	for _, opts := range []Options{
		{Workers: 4, Speculate: true},
		{Workers: 4, Portfolio: true},
		{Workers: 4, Speculate: true, Portfolio: true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := Compile(ctx, f, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled %+v: err = %v, want context.Canceled", opts, err)
		}
		tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, _, err := Compile(tctx, f, opts)
		tcancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("mid-compile deadline %+v: err = %v, want nil or DeadlineExceeded", opts, err)
		}
	}
}

// TestSpeculationNoGoroutineLeak compiles many instances — successes, budget
// failures, and cancellations, all with speculation and portfolio on — and
// asserts the goroutine count settles back to the baseline: cancelled losers
// must release their spawn tokens and exit.
func TestSpeculationNoGoroutineLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		f := hardSingleComponentCNF(rng, 30)
		opts := Options{Workers: 4, Speculate: true, Portfolio: i%2 == 0}
		switch i % 3 {
		case 1:
			opts.MaxNodes = 5 // budget failure inside branches
		case 2:
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			Compile(ctx, f, opts)
			continue
		}
		Compile(context.Background(), f, opts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pickMostFrequentRecompute is the map-based most-frequent heuristic: a
// full occurrence-count rebuild per decision, the oracle for the array pick.
func pickMostFrequentRecompute(clauses []cnf.Clause) int {
	counts := make(map[int]int)
	for _, cl := range clauses {
		for _, l := range cl {
			counts[l.Var()]++
		}
	}
	best, bestCount := 0, -1
	for v, n := range counts {
		if n > bestCount || (n == bestCount && v < best) {
			best, bestCount = v, n
		}
	}
	return best
}

// pickJeroslowWang is the map-based Jeroslow–Wang heuristic, the oracle for
// the array pick: scores Σ 2^-|cl| accumulated in clause order, the maximum
// wins, ties broken by the smaller variable.
func pickJeroslowWang(clauses []cnf.Clause) int {
	scores := make(map[int]float64)
	for _, cl := range clauses {
		w := 1.0
		for i := 0; i < len(cl) && i < 62; i++ {
			w /= 2
		}
		for _, l := range cl {
			scores[l.Var()] += w
		}
	}
	best, bestScore := 0, -1.0
	for v, s := range scores {
		if s > bestScore || (s == bestScore && v < best) {
			best, bestScore = v, s
		}
	}
	return best
}

// TestPickVarIncrementalAgreesWithRecompute random-walks conditioning and
// propagation over random clause sets and checks at every step that the
// array pick of scratch equals the map-based oracle, for the most-frequent
// and the Jeroslow–Wang order alike.
func TestPickVarIncrementalAgreesWithRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	oracles := map[VarOrder]func([]cnf.Clause) int{
		OrderMostFrequent: pickMostFrequentRecompute,
		OrderJeroslowWang: pickJeroslowWang,
	}
	for trial := 0; trial < 60; trial++ {
		raw := singleComponentCNF(rng, 10, 30)
		clauses := make([]cnf.Clause, 0, len(raw.Clauses))
		for _, cl := range raw.Clauses {
			norm, taut := normalizeClause(cl)
			if !taut && len(norm) > 0 {
				clauses = append(clauses, norm)
			}
		}
		clauses, orig := densify(clauses)
		s := newScratch(orig)
		for step := 0; len(clauses) > 0; step++ {
			for order, oracle := range oracles {
				if got, want := s.pickVar(order, clauses), oracle(clauses); got != want {
					t.Fatalf("trial %d step %d %v: array pick %d, oracle pick %d", trial, step, order, got, want)
				}
			}
			// Alternate conditioning steps with propagation rounds, like the
			// compiler does.
			if step%3 == 2 {
				_, rest, conflict := s.propagate(clauses)
				if conflict {
					break
				}
				clauses = rest
				continue
			}
			l := cnf.Lit(s.pickVar(OrderMostFrequent, clauses))
			if rng.Intn(2) == 0 {
				l = -l
			}
			next, empty := s.assign(clauses, l)
			if empty {
				break
			}
			clauses = next
		}
	}
}

func TestParseVarOrder(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VarOrder
	}{
		{"freq", OrderMostFrequent},
		{"", OrderMostFrequent},
		{"lex", OrderLexicographic},
		{"jw", OrderJeroslowWang},
		{"JW", OrderJeroslowWang},
	} {
		got, err := ParseVarOrder(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseVarOrder(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if _, err := ParseVarOrder(got.String()); err != nil {
			t.Fatalf("String/Parse round-trip failed for %v", got)
		}
	}
	if _, err := ParseVarOrder("bogus"); err == nil {
		t.Fatal("ParseVarOrder accepted a bogus name")
	}
}

// BenchmarkPickVar compares the array pick of scratch with the map-based
// oracle on a mid-size residual, under the most-frequent order.
func BenchmarkPickVar(b *testing.B) {
	rng := rand.New(rand.NewSource(251))
	raw := singleComponentCNF(rng, 60, 260)
	clauses := make([]cnf.Clause, 0, len(raw.Clauses))
	for _, cl := range raw.Clauses {
		if norm, taut := normalizeClause(cl); !taut && len(norm) > 0 {
			clauses = append(clauses, norm)
		}
	}
	clauses, orig := densify(clauses)
	b.Run("map", func(b *testing.B) {
		for b.Loop() {
			pickMostFrequentRecompute(clauses)
		}
	})
	b.Run("array", func(b *testing.B) {
		s := newScratch(orig)
		for b.Loop() {
			s.pickVar(OrderMostFrequent, clauses)
		}
	})
}

// BenchmarkCompileSpeculative compiles a hard single-component CNF with and
// without speculation at 4 workers — the headline scaling the PR targets.
func BenchmarkCompileSpeculative(b *testing.B) {
	rng := rand.New(rand.NewSource(257))
	f := hardSingleComponentCNF(rng, 40)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Workers: 1}},
		{"workers4", Options{Workers: 4}},
		{"workers4-speculate", Options{Workers: 4, Speculate: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Compile(context.Background(), f, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompilePortfolio races heuristics on the same instance versus
// running the default heuristic alone.
func BenchmarkCompilePortfolio(b *testing.B) {
	rng := rand.New(rand.NewSource(263))
	f := hardSingleComponentCNF(rng, 36)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"default-order", Options{Workers: 4}},
		{"jw-order", Options{Workers: 4, Order: OrderJeroslowWang}},
		{"portfolio", Options{Workers: 4, Portfolio: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Compile(context.Background(), f, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
