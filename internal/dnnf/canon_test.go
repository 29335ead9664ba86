package dnnf

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// randomPermutation returns a bijection over f's variables, mapping into a
// fresh, possibly shifted id range so renamed formulas don't share numbering
// with the originals.
func randomPermutation(rng *rand.Rand, f *cnf.Formula, shift int) map[int]int {
	vars := f.Vars()
	targets := make([]int, len(vars))
	for i := range targets {
		targets[i] = shift + i + 1
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	m := make(map[int]int, len(vars))
	for i, v := range vars {
		m[v] = targets[i]
	}
	return m
}

// permuteFormula applies a variable renaming to every clause and to the
// auxiliary-variable bookkeeping.
func permuteFormula(f *cnf.Formula, m map[int]int) *cnf.Formula {
	out := &cnf.Formula{Aux: make(map[int]bool)}
	for _, cl := range f.Clauses {
		rc := make(cnf.Clause, len(cl))
		for i, l := range cl {
			nv := cnf.Lit(m[l.Var()])
			if !l.Positive() {
				nv = -nv
			}
			rc[i] = nv
		}
		out.Clauses = append(out.Clauses, rc)
	}
	for v, isAux := range f.Aux {
		if nv, ok := m[v]; ok {
			out.Aux[nv] = isAux
		}
	}
	for _, v := range out.Vars() {
		if v > out.MaxVar {
			out.MaxVar = v
		}
	}
	return out
}

func normalizeAll(t *testing.T, f *cnf.Formula) []cnf.Clause {
	t.Helper()
	var out []cnf.Clause
	for _, cl := range f.Clauses {
		norm, taut := normalizeClause(cl)
		if taut {
			continue
		}
		if len(norm) == 0 {
			t.Fatal("empty clause in test formula")
		}
		out = append(out, norm)
	}
	return out
}

// TestCanonicalFormInvariantUnderRenaming checks the heart of the canonical
// cache: renaming a formula's variables by a random bijection leaves its
// canonical key unchanged, and the two toCanon maps compose into the
// original renaming.
func TestCanonicalFormInvariantUnderRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		f := randomCNF(rng, 2+rng.Intn(6), 1+rng.Intn(8))
		perm := randomPermutation(rng, f, rng.Intn(50))
		g := permuteFormula(f, perm)

		isAuxF := func(v int) bool { return f.Aux[v] }
		isAuxG := func(v int) bool { return g.Aux[v] }
		toCanonF, keyF, errF := canonicalForm(normalizeAll(t, f), isAuxF, nil)
		toCanonG, keyG, errG := canonicalForm(normalizeAll(t, g), isAuxG, nil)
		if errF != nil || errG != nil {
			t.Fatalf("trial %d: canonicalForm errors %v / %v", trial, errF, errG)
		}
		if keyF != keyG {
			t.Fatalf("trial %d: canonical keys differ under renaming\nf: %v\nkeyF: %q\nkeyG: %q", trial, f.Clauses, keyF, keyG)
		}
		// The two canonical maps need not reproduce perm on automorphic
		// variables (symmetric variables may swap canonical indices), but
		// their composition must be an isomorphism of the clause sets —
		// exactly the property cache relabeling relies on.
		fromCanonG := make(map[int]int, len(toCanonG))
		for v, canon := range toCanonG {
			fromCanonG[canon] = v
		}
		composite := make(map[int]int, len(toCanonF))
		for v, canon := range toCanonF {
			composite[v] = fromCanonG[canon]
		}
		mapped := make([]cnf.Clause, 0, len(f.Clauses))
		for _, cl := range normalizeAll(t, f) {
			rc := make(cnf.Clause, len(cl))
			for i, l := range cl {
				nv := cnf.Lit(composite[l.Var()])
				if !l.Positive() {
					nv = -nv
				}
				rc[i] = nv
			}
			norm, taut := normalizeClause(rc)
			if taut {
				t.Fatalf("trial %d: renaming introduced a tautology", trial)
			}
			mapped = append(mapped, norm)
		}
		if got, want := cacheKey(mapped), cacheKey(normalizeAll(t, g)); got != want {
			t.Fatalf("trial %d: composite canonical map is not an isomorphism\nf: %v\ng: %v", trial, f.Clauses, g.Clauses)
		}
	}
}

// TestCanonicalCacheRenamedHit compiles a formula, then its renamed copy,
// and requires the copy to be served from the cache via relabeling — with
// the returned circuit exactly equivalent to the renamed formula.
func TestCanonicalCacheRenamedHit(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		f := randomCNF(rng, 2+rng.Intn(5), 1+rng.Intn(7))
		if len(normalizeAll(t, f)) == 0 {
			// All clauses tautological: no variables survive, so there is
			// nothing to relabel.
			continue
		}
		// Shift past any possible original id so the renaming is never the
		// identity and the hit must relabel.
		perm := randomPermutation(rng, f, 10+rng.Intn(20))
		g := permuteFormula(f, perm)

		cache := NewCompileCache(4)
		if _, stats, err := Compile(context.Background(), f, Options{Cache: cache}); err != nil {
			t.Fatal(err)
		} else if stats.CrossCallHit {
			t.Fatal("cold compilation reported a hit")
		}
		warm, stats, err := Compile(context.Background(), g, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.CrossCallHit {
			t.Fatalf("trial %d: renamed-isomorphic formula missed the canonical cache\nf: %v\ng: %v", trial, f.Clauses, g.Clauses)
		}
		// The shift guarantees at least one variable moved, so the hit must
		// have relabeled the cached circuit.
		if !stats.RenamedHit {
			t.Fatalf("trial %d: hit on shifted variables did not report relabeling", trial)
		}
		universe := g.Vars()
		if len(universe) > 16 {
			t.Fatalf("trial %d: universe unexpectedly large", trial)
		}
		assign := make(map[int]bool)
		for mask := 0; mask < 1<<len(universe); mask++ {
			for i, v := range universe {
				assign[v] = mask&(1<<i) != 0
			}
			if Eval(warm, assign) != g.Eval(assign) {
				t.Fatalf("trial %d: relabeled cached circuit differs from renamed formula at %v\nf: %v\ng: %v",
					trial, assign, f.Clauses, g.Clauses)
			}
		}
	}
}

// TestCanonicalCachePolarityMiss pins down soundness for near-misses: two
// formulas with the same clause shapes but non-isomorphic polarity patterns
// must not alias. {(1∨2),(1∨3)} has a variable occurring positively twice;
// {(¬1∨2),(1∨3)} does not — no renaming maps one onto the other.
func TestCanonicalCachePolarityMiss(t *testing.T) {
	a := &cnf.Formula{Clauses: []cnf.Clause{{1, 2}, {1, 3}}, Aux: map[int]bool{}, MaxVar: 3}
	b := &cnf.Formula{Clauses: []cnf.Clause{{-1, 2}, {1, 3}}, Aux: map[int]bool{}, MaxVar: 3}
	cache := NewCompileCache(4)
	if _, _, err := Compile(context.Background(), a, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := Compile(context.Background(), b, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrossCallHit {
		t.Error("different-polarity formula served from the cache")
	}
	if st := cache.Stats(); st.IdenticalHits != 0 || st.RenamedHits != 0 || st.Misses != 2 {
		t.Errorf("Stats identical=%d renamed=%d misses=%d, want 0/0/2", st.IdenticalHits, st.RenamedHits, st.Misses)
	}
}

// TestCanonicalCacheIdenticalFormulaSharesRoot verifies that byte-identical
// re-compilation is still served without relabeling: the renaming composes
// to the identity, so the hit returns the cached root itself.
func TestCanonicalCacheIdenticalFormulaSharesRoot(t *testing.T) {
	f := &cnf.Formula{
		Clauses: []cnf.Clause{{1, 2}, {-1, 3}, {2, -3}},
		Aux:     map[int]bool{},
		MaxVar:  3,
	}
	cache := NewCompileCache(4)
	first, _, err := Compile(context.Background(), f, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	second, stats, err := Compile(context.Background(), f, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CrossCallHit || stats.RenamedHit {
		t.Fatalf("identical formula: CrossCallHit=%v RenamedHit=%v, want hit without relabeling", stats.CrossCallHit, stats.RenamedHit)
	}
	if first != second {
		t.Error("identity hit returned a relabeled copy instead of the cached root")
	}
	if st := cache.Stats(); st.IdenticalHits != 1 || st.RenamedHits != 0 {
		t.Errorf("Stats identical=%d renamed=%d, want 1/0", st.IdenticalHits, st.RenamedHits)
	}
}

// TestCanonicalCacheDisabledByToggle checks the ablation switch: with
// NoCanonicalCache set, a renamed-isomorphic formula is a miss.
func TestCanonicalCacheDisabledByToggle(t *testing.T) {
	f := &cnf.Formula{Clauses: []cnf.Clause{{1, 2}, {-1, 3}}, Aux: map[int]bool{}, MaxVar: 3}
	g := permuteFormula(f, map[int]int{1: 7, 2: 9, 3: 8})
	cache := NewCompileCache(4)
	opts := Options{Cache: cache, NoCanonicalCache: true}
	if _, _, err := Compile(context.Background(), f, opts); err != nil {
		t.Fatal(err)
	}
	_, stats, err := Compile(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrossCallHit {
		t.Error("byte-identical keying served a renamed formula")
	}
	// And the byte-identical path still hits on the exact same formula.
	if _, stats, err = Compile(context.Background(), g, opts); err != nil || !stats.CrossCallHit {
		t.Errorf("byte-identical re-compilation missed (err=%v hit=%v)", err, stats.CrossCallHit)
	}
}

// TestCanonicalFormLargeSymmetricOrbit exercises the individualization cap:
// a single wide clause makes every variable interchangeable (one automorphism
// orbit far larger than maxIndividualizationRounds), the labeling must still
// finish promptly, and a renamed copy must still produce the same key —
// automorphic ties render identically no matter how they are broken.
func TestCanonicalFormLargeSymmetricOrbit(t *testing.T) {
	const n = 500
	wide := make(cnf.Clause, n)
	for i := range wide {
		wide[i] = cnf.Lit(i + 1)
	}
	f := &cnf.Formula{Clauses: []cnf.Clause{wide}, Aux: map[int]bool{}, MaxVar: n}
	rng := rand.New(rand.NewSource(113))
	g := permuteFormula(f, randomPermutation(rng, f, 1000))
	_, keyF, err := canonicalForm(normalizeAll(t, f), func(int) bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, keyG, err := canonicalForm(normalizeAll(t, g), func(int) bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if keyF != keyG {
		t.Error("symmetric-orbit keys differ under renaming despite the individualization cap")
	}
}

// TestCanonicalFormHonorsBudgetCheck verifies cancellation reaches the
// labeling: a failing check aborts canonicalForm with that error.
func TestCanonicalFormHonorsBudgetCheck(t *testing.T) {
	f := &cnf.Formula{Clauses: []cnf.Clause{{1, 2}, {-1, 3}, {2, -3}}, Aux: map[int]bool{}, MaxVar: 3}
	boom := errors.New("budget")
	if _, _, err := canonicalForm(normalizeAll(t, f), func(int) bool { return false }, func() error { return boom }); err != boom {
		t.Fatalf("err = %v, want the check's error", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewCompileCache(4)
	if _, _, err := Compile(ctx, f, Options{Cache: cache}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compile with canonical cache: err = %v, want context.Canceled", err)
	}
}

// TestRelabelPreservesSemantics checks Relabel in isolation: the relabeled
// circuit evaluates exactly like the original with the assignment pulled
// back through the renaming, and keeps the d-D structural invariants.
func TestRelabelPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 80; trial++ {
		f := randomCNF(rng, 2+rng.Intn(5), 1+rng.Intn(7))
		n, _, err := Compile(context.Background(), f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		perm := randomPermutation(rng, f, rng.Intn(30))
		relabeled := Relabel(NewBuilder(), n, perm)
		if err := Validate(relabeled, 12); err != nil {
			t.Fatalf("trial %d: relabeled circuit invalid: %v", trial, err)
		}
		universe := f.Vars()
		assign := make(map[int]bool)
		renamedAssign := make(map[int]bool)
		for mask := 0; mask < 1<<len(universe); mask++ {
			for i, v := range universe {
				val := mask&(1<<i) != 0
				assign[v] = val
				renamedAssign[perm[v]] = val
			}
			if Eval(relabeled, renamedAssign) != Eval(n, assign) {
				t.Fatalf("trial %d: relabeled circuit diverges at %v", trial, assign)
			}
		}
	}
}
