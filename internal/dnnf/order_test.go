package dnnf

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// singleComponentCNF builds one connected random width-3 block.
func singleComponentCNF(rng *rand.Rand, vars, clauses int) *cnf.Formula {
	return blockCNF(rng, 1, vars, clauses, func() int { return 3 })
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
