package dnnf

import (
	"bytes"
	"context"
	"errors"
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

// TestCompileIsDeterministic pins that the compiler numbers nodes in a
// fixed order: compiling one formula twice, each time into a fresh
// builder, serializes to byte-identical NNF files.
func TestCompileIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 10; trial++ {
		f := multiComponentCNF(rng, 3, 4, 5)
		var want []byte
		for run := 0; run < 2; run++ {
			n, _, err := Compile(context.Background(), f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteNNF(&buf, n); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("trial %d run %d: circuit diverges from the first run", trial, run)
			}
		}
	}
}

// TestCompileCallerCancellation pins that the caller's cancellation is an
// error, the caller's context error, and never a budget sentinel: a
// cancelled context fails before any search, and a deadline that fires
// mid-compile fails with DeadlineExceeded unless the compile finished
// first.
func TestCompileCallerCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	f := singleComponentCNF(rng, 44, 44*7/2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Compile(ctx, f, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer tcancel()
	if _, _, err := Compile(tctx, f, Options{}); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-compile deadline: err = %v, want nil or DeadlineExceeded", err)
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
		s := newScratch(orig, nil)
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
		c := newCompiler(Options{}, orig, time.Now())
		s := newScratch(orig, nil)
		if _, err := c.compile(context.Background(), s, dense); err != nil {
			t.Fatal(err)
		}
		if f := s.mark(); f != (frame{}) {
			t.Fatalf("trial %d: compile left its stacks at %+v", trial, f)
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
