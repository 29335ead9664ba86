package dnnf

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/cnf"
)

// multiComponentCNF builds `blocks` disjoint random CNF blocks (widths 2-3),
// giving the top-level compile call that many independent components to fan
// out.
func multiComponentCNF(rng *rand.Rand, blocks, varsPer, clausesPer int) *cnf.Formula {
	return blockCNF(rng, blocks, varsPer, clausesPer, func() int { return 2 + rng.Intn(2) })
}

// hardMultiComponentCNF is the width-3-only variant: without width-2 clauses
// the blocks keep real search work, which the parallel benchmark needs.
func hardMultiComponentCNF(rng *rand.Rand, blocks, varsPer, clausesPer int) *cnf.Formula {
	return blockCNF(rng, blocks, varsPer, clausesPer, func() int { return 3 })
}

func blockCNF(rng *rand.Rand, blocks, varsPer, clausesPer int, width func() int) *cnf.Formula {
	f := &cnf.Formula{Aux: map[int]bool{}}
	for b := 0; b < blocks; b++ {
		base := b * varsPer
		for i := 0; i < clausesPer; i++ {
			w := width()
			clause := make(cnf.Clause, 0, w)
			for j := 0; j < w; j++ {
				v := base + 1 + rng.Intn(varsPer)
				l := cnf.Lit(v)
				if rng.Intn(2) == 0 {
					l = -l
				}
				clause = append(clause, l)
			}
			f.Clauses = append(f.Clauses, clause)
		}
	}
	f.MaxVar = blocks * varsPer
	return f
}

// TestParallelCompileMatchesSequential is the race-coverage contract for the
// parallel compiler: at several worker counts (including 1), compilation of
// random multi-component CNFs produces circuits semantically equal to the
// sequential ones — same model counts and pointwise-equal evaluation.
// Running under -race also exercises the concurrent builder and caches.
func TestParallelCompileMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		f := multiComponentCNF(rng, 1+rng.Intn(4), 4, 5)
		universe := f.Vars()
		serial, _, err := Compile(context.Background(), f, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := CountModels(serial, universe)
		for _, workers := range []int{1, 2, 4, 8} {
			par, _, err := Compile(context.Background(), f, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if err := Validate(par, len(universe)); err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if got := CountModels(par, universe); got.Cmp(want) != 0 {
				t.Fatalf("trial %d workers=%d: model count %v, want %v", trial, workers, got, want)
			}
			if len(universe) <= 16 {
				assign := make(map[int]bool)
				for mask := 0; mask < 1<<len(universe); mask++ {
					for i, v := range universe {
						assign[v] = mask&(1<<i) != 0
					}
					if Eval(par, assign) != Eval(serial, assign) {
						t.Fatalf("trial %d workers=%d: circuits diverge at %v", trial, workers, assign)
					}
				}
			}
		}
	}
}

// TestWorkersOneIsDeterministic pins the workers=1 guarantee: the sequential
// path allocates node IDs in a fixed order, so two runs serialize to
// byte-identical NNF files. Speculation and portfolio mode are inert at
// workers=1 (no spawn tokens, fewer workers than racers), so enabling them
// must leave the bytes identical too.
func TestWorkersOneIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	variants := []Options{
		{Workers: 1},
		{Workers: 1, Speculate: true},
		{Workers: 1, Portfolio: true},
		{Workers: 1, Speculate: true, Portfolio: true},
	}
	for trial := 0; trial < 10; trial++ {
		f := multiComponentCNF(rng, 3, 4, 5)
		var want []byte
		for vi, opts := range variants {
			for run := 0; run < 2; run++ {
				n, stats, err := Compile(context.Background(), f, opts)
				if err != nil {
					t.Fatal(err)
				}
				if stats.SpeculatedDecisions != 0 || stats.PortfolioRacers != 0 {
					t.Fatalf("trial %d variant %d: speculation/portfolio engaged at workers=1: %+v", trial, vi, stats)
				}
				var buf bytes.Buffer
				if err := WriteNNF(&buf, n); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("trial %d variant %d run %d: workers=1 circuit diverges from plain sequential", trial, vi, run)
				}
			}
		}
	}
}

// TestParallelCompileBudgetsStillEnforced checks that the node budget fires
// under parallel compilation too (the check reads the shared builder's
// atomic allocation count).
func TestParallelCompileBudgetsStillEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	f := multiComponentCNF(rng, 4, 6, 14)
	_, _, err := Compile(context.Background(), f, Options{Workers: 4, MaxNodes: 3})
	if err != ErrNodeBudget {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
}

func TestNormalizeClauseFastPath(t *testing.T) {
	sorted := cnf.Clause{-1, 2, 5}
	norm, taut := normalizeClause(sorted)
	if taut {
		t.Fatal("sorted clause misreported as tautology")
	}
	if &norm[0] != &sorted[0] {
		t.Error("already-normalized clause was copied")
	}

	unsorted := cnf.Clause{5, -1, 2}
	norm, taut = normalizeClause(unsorted)
	if taut || len(norm) != 3 || &norm[0] == &unsorted[0] {
		t.Errorf("unsorted clause: norm=%v taut=%v (copy expected)", norm, taut)
	}
	if norm[0] != -1 || norm[1] != 2 || norm[2] != 5 {
		t.Errorf("unsorted clause normalized to %v", norm)
	}

	if _, taut := normalizeClause(cnf.Clause{-3, 3}); !taut {
		t.Error("adjacent ¬v, v not detected as tautology")
	}
	if _, taut := normalizeClause(cnf.Clause{3, 1, -3}); !taut {
		t.Error("out-of-order tautology not detected")
	}
	norm, taut = normalizeClause(cnf.Clause{2, 2, 1})
	if taut || len(norm) != 2 || norm[0] != 1 || norm[1] != 2 {
		t.Errorf("duplicate literal clause normalized to %v (taut=%v)", norm, taut)
	}
	// Adjacent duplicates in otherwise sorted order must still dedup (the
	// fast path may not return them as-is).
	norm, taut = normalizeClause(cnf.Clause{1, 2, 2})
	if taut || len(norm) != 2 {
		t.Errorf("sorted clause with duplicate normalized to %v (taut=%v)", norm, taut)
	}
}

// BenchmarkNormalizeClause is the satellite's benchmark guard: the fast path
// must make pre-sorted clauses (the common case on parser round-trips)
// allocation-free.
func BenchmarkNormalizeClause(b *testing.B) {
	sorted := cnf.Clause{1, 2, -3, 4, 5, 6, -7}
	unsorted := cnf.Clause{6, 2, -7, 5, 1, -3, 4}
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, taut := normalizeClause(sorted); taut {
				b.Fatal("tautology")
			}
		}
	})
	b.Run("unsorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, taut := normalizeClause(unsorted); taut {
				b.Fatal("tautology")
			}
		}
	})
}

// BenchmarkCompileParallel measures the component fan-out on a CNF with four
// independent hard components, serial versus several worker counts. On a
// multi-core machine the 4-worker configuration should approach a 4x
// speedup; on a single-CPU machine it documents the (small) overhead.
func BenchmarkCompileParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	f := hardMultiComponentCNF(rng, 4, 26, 65)
	universe := f.Vars()
	serial, _, err := Compile(context.Background(), f, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	want := CountModels(serial, universe)
	for _, workers := range []int{1, 2, 4} {
		par, _, err := Compile(context.Background(), f, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if got := CountModels(par, universe); got.Cmp(want) != 0 {
			b.Fatalf("workers=%d: model count %v, want %v", workers, got, want)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Compile(context.Background(), f, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randomClauseSet draws normalized clauses of both signs over one to four
// blocks of twelve variables each, so most sets split into several
// components. The variables carry sparse, non-contiguous IDs in no order
// relative to their blocks.
func randomClauseSet(rng *rand.Rand) []cnf.Clause {
	blocks := 1 + rng.Intn(4)
	ids := sparseIDs(rng, 12*blocks)
	var clauses []cnf.Clause
	for i, n := 0, rng.Intn(12); i < n; i++ {
		base := rng.Intn(blocks) * 12
		cl := make(cnf.Clause, 0, 3)
		for j, w := 0, 1+rng.Intn(3); j < w; j++ {
			l := cnf.Lit(ids[base+rng.Intn(12)])
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl = append(cl, l)
		}
		if norm, taut := normalizeClause(cl); !taut {
			clauses = append(clauses, norm)
		}
	}
	return clauses
}

// densify is renumber on a copy of the clauses, which it leaves as they
// were.
func densify(clauses []cnf.Clause) (dense []cnf.Clause, orig []int) {
	dense = make([]cnf.Clause, len(clauses))
	for i, cl := range clauses {
		dense[i] = slices.Clone(cl)
	}
	return dense, renumber(dense)
}

// componentsWithMaps is the reference for components: a map-based
// union-find that returns the components in ascending order of their
// representative variable, each with its clauses in input order.
func componentsWithMaps(clauses []cnf.Clause) [][]cnf.Clause {
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, cl := range clauses {
		for i := 1; i < len(cl); i++ {
			ra, rb := find(cl[0].Var()), find(cl[i].Var())
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	groups := make(map[int][]cnf.Clause)
	var roots []int
	for _, cl := range clauses {
		r := find(cl[0].Var())
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], cl)
	}
	sort.Ints(roots)
	out := make([][]cnf.Clause, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// TestComponentsMatchesMapUnionFind pins components to a map-based
// reference: the same components in the same order, each with its clauses
// in input order. The compiler builds nodes in component order, so this
// order fixes every compiled circuit. components runs on the densified
// clause set, which is mapped back for the comparison; the second call on
// the same scratch checks that the first left it clean.
func TestComponentsMatchesMapUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 2000; trial++ {
		clauses := randomClauseSet(rng)
		dense, orig := densify(clauses)
		s := newScratch(orig)
		want := componentsWithMaps(clauses)
		for call := 0; call < 2; call++ {
			comps := s.components(dense)
			got := make([][]cnf.Clause, len(comps))
			for i, comp := range comps {
				for _, cl := range comp {
					back := make(cnf.Clause, len(cl))
					for j, l := range cl {
						back[j] = cnf.Lit(orig[l.Var()])
						if l < 0 {
							back[j] = -back[j]
						}
					}
					got[i] = append(got[i], back)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: components(%v) = %v, want %v", call, clauses, got, want)
			}
		}
	}
}

// TestCompileReleasesScratch checks that a compilation leaves its
// scratch's stacks where it found them: every frame releases the clause
// sets it took, so the chunks are reused from decision to decision instead
// of growing with the search.
func TestCompileReleasesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(293))
	for trial := 0; trial < 40; trial++ {
		f := multiComponentCNF(rng, 1+rng.Intn(3), 6+rng.Intn(6), 12+rng.Intn(12))
		var clauses []cnf.Clause
		for _, cl := range f.Clauses {
			if norm, taut := normalizeClause(cl); !taut && len(norm) > 0 {
				clauses = append(clauses, norm)
			}
		}
		dense, orig := densify(clauses)
		for _, opts := range []Options{{Workers: 1}, {Workers: 4, Speculate: true}} {
			c := newCompiler(opts, orig, time.Now())
			s := newScratch(orig)
			if _, err := c.compile(context.Background(), s, dense, 0); err != nil {
				t.Fatal(err)
			}
			if f := s.mark(); f != (frame{}) {
				t.Fatalf("trial %d, workers %d: compile left its stacks at %+v", trial, opts.Workers, f)
			}
		}
	}
}

// TestCacheKeyIsInjective checks the clause-set key against its contract:
// two clause sets share a key exactly when they are equal as multisets.
// Reordering the clauses keeps the key; moving a literal across a clause
// boundary, which leaves the literal sequence alike, changes it.
func TestCacheKeyIsInjective(t *testing.T) {
	for _, pair := range [][2][]cnf.Clause{
		{{{1, 2}, {3}}, {{1}, {2, 3}}},
		{{{-1, 200}, {300}}, {{-1}, {200, 300}}},
		{{{5}, {5}}, {{5}}},
	} {
		if cacheKey(pair[0]) == cacheKey(pair[1]) {
			t.Errorf("%v and %v share a key", pair[0], pair[1])
		}
	}
	rng := rand.New(rand.NewSource(263))
	for trial := 0; trial < 500; trial++ {
		clauses := randomClauseSet(rng)
		shuffled := slices.Clone(clauses)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if cacheKey(clauses) != cacheKey(shuffled) {
			t.Fatalf("reordering %v changed its key", clauses)
		}
	}
}
