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
// It picks among the variables aux leaves unmarked, or among all of them
// when every variable is marked.
func pickMostFrequentRecompute(clauses []cnf.Clause, aux map[int]bool) int {
	counts := make(map[int]int)
	for _, cl := range clauses {
		for _, l := range cl {
			counts[l.Var()]++
		}
	}
	best, bestCount := 0, -1
	for _, factsOnly := range []bool{true, false} {
		for v, n := range counts {
			if factsOnly && aux[v] {
				continue
			}
			if n > bestCount || (n == bestCount && v < best) {
				best, bestCount = v, n
			}
		}
		if best != 0 {
			break
		}
	}
	return best
}

// TestPickVarIncrementalAgreesWithRecompute random-walks conditioning and
// propagation over random clause sets, with a random share of the
// variables (none to all) marked as auxiliaries, and checks at every step
// that the array pick of scratch equals the map-based oracle.
func TestPickVarIncrementalAgreesWithRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
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
		share := rng.Intn(4) // marks none, a third, two thirds or all
		aux, denseAux := map[int]bool{}, map[int]bool{}
		for d, v := range orig[1:] {
			if rng.Intn(3) < share {
				aux[v], denseAux[d+1] = true, true
			}
		}
		s := newScratch(orig, aux)
		for step := 0; len(clauses) > 0; step++ {
			if got, want := s.pickVar(clauses), pickMostFrequentRecompute(clauses, denseAux); got != want {
				t.Fatalf("trial %d step %d: array pick %d, oracle pick %d", trial, step, got, want)
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
			l := cnf.Lit(s.pickVar(clauses))
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

// BenchmarkPickVar compares the array pick of scratch with the map-based
// oracle on a mid-size residual.
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
			pickMostFrequentRecompute(clauses, nil)
		}
	})
	b.Run("array", func(b *testing.B) {
		s := newScratch(orig, nil)
		for b.Loop() {
			s.pickVar(clauses)
		}
	})
}
