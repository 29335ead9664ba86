package dnnf

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
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
		// exactly the property a cache keyed on the labeling relies on.
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

// chainFormula returns a small satisfiable CNF parameterized by k so tests
// can mint distinct formulas: (x1 ∨ x2) ∧ (¬x1 ∨ x3) ∧ (xk).
func chainFormula(k int) *cnf.Formula {
	return &cnf.Formula{
		Clauses: []cnf.Clause{
			{cnf.Lit(1), cnf.Lit(2)},
			{cnf.Lit(-1), cnf.Lit(3)},
			{cnf.Lit(k)},
		},
		Aux:    map[int]bool{},
		MaxVar: k,
	}
}

// mustCacheKey is CacheKey without a budget check, failing the test on error.
func mustCacheKey(t *testing.T, f *cnf.Formula) (string, []int) {
	t.Helper()
	key, facts, err := CacheKey(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return key, facts
}

// TestCanonicalCacheRenamedHit keys a formula and its renamed copy: the
// canonical keys must agree, and mapping the i-th fact of one onto the i-th
// fact of the other must carry one clause set onto the other — which is
// what lets a cache hand one formula's per-fact results to the other.
func TestCanonicalCacheRenamedHit(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		f := randomCNF(rng, 2+rng.Intn(5), 1+rng.Intn(7))
		if rng.Intn(2) == 0 {
			f.Aux[f.Vars()[0]] = true
		}
		// Shift past any possible original id so the renaming is never the
		// identity.
		perm := randomPermutation(rng, f, 10+rng.Intn(20))
		g := permuteFormula(f, perm)
		keyF, factsF := mustCacheKey(t, f)
		keyG, factsG := mustCacheKey(t, g)
		if keyF != keyG {
			t.Fatalf("trial %d: renamed formula got another key\nf: %v\ng: %v", trial, f.Clauses, g.Clauses)
		}
		if len(factsF) != len(factsG) {
			t.Fatalf("trial %d: %d facts vs %d", trial, len(factsF), len(factsG))
		}
		// Facts map along key order; auxiliaries, and variables that occur
		// in tautologies only, through the permutation.
		m := maps.Clone(perm)
		for i, v := range factsF {
			if f.Aux[v] || g.Aux[factsG[i]] {
				t.Fatalf("trial %d: auxiliary variable listed as a fact", trial)
			}
			m[v] = factsG[i]
		}
		mapped := permuteFormula(f, m)
		if got, want := cacheKey(normalizeAll(t, mapped)), cacheKey(normalizeAll(t, g)); got != want {
			t.Fatalf("trial %d: key order is not an isomorphism\nf: %v\ng: %v", trial, f.Clauses, g.Clauses)
		}
	}
}

// TestCanonicalCachePolarityMiss pins down soundness for near-misses: two
// formulas with the same clause shapes but non-isomorphic polarity patterns
// must not share a key. {(1∨2),(1∨3)} has a variable occurring positively
// twice; {(¬1∨2),(1∨3)} does not — no renaming maps one onto the other.
func TestCanonicalCachePolarityMiss(t *testing.T) {
	a := &cnf.Formula{Clauses: []cnf.Clause{{1, 2}, {1, 3}}, Aux: map[int]bool{}, MaxVar: 3}
	b := &cnf.Formula{Clauses: []cnf.Clause{{-1, 2}, {1, 3}}, Aux: map[int]bool{}, MaxVar: 3}
	keyA, _ := mustCacheKey(t, a)
	keyB, _ := mustCacheKey(t, b)
	if keyA == keyB {
		t.Error("different-polarity formulas share a key")
	}
}

// TestCompileCacheDistinguishesAuxBookkeeping: equal clauses under
// different auxiliary-variable bookkeeping must not share a key, and
// auxiliaries are never listed as facts.
func TestCompileCacheDistinguishesAuxBookkeeping(t *testing.T) {
	plain := chainFormula(3)
	marked := chainFormula(3)
	marked.Aux = map[int]bool{3: true}
	keyPlain, _ := mustCacheKey(t, plain)
	keyMarked, facts := mustCacheKey(t, marked)
	if keyPlain == keyMarked {
		t.Error("formulas with different Aux sets share a key")
	}
	if slices.Contains(facts, 3) || len(facts) != 2 {
		t.Errorf("facts %v, want the two non-auxiliary variables", facts)
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
	if _, _, err := CacheKey(f, func() error { return boom }); err != boom {
		t.Fatalf("CacheKey: err = %v, want the check's error", err)
	}
}
