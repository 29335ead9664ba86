package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flights"
)

func TestExplainFlights(t *testing.T) {
	d, fs := flights.Build()
	q := flights.Query()
	exp, err := ExplainBoolean(context.Background(), d, q, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Method != MethodExact {
		t.Fatalf("method = %v, want exact", exp.Method)
	}
	if exp.NumFacts != 7 {
		t.Errorf("NumFacts = %d, want 7", exp.NumFacts)
	}
	if got := exp.Values[fs.A[1].ID]; got.Cmp(big.NewRat(43, 105)) != 0 {
		t.Errorf("Shapley(a1) = %v, want 43/105", got)
	}
	if top := exp.TopFacts(1); len(top) != 1 || top[0] != fs.A[1].ID {
		t.Errorf("TopFacts(1) = %v, want [a1]", top)
	}
	if s := exp.Score(fs.A[1].ID); s < 0.40 || s > 0.42 {
		t.Errorf("Score(a1) = %v, want ≈ 0.4095", s)
	}
	if sum := EfficiencySum(exp.Values); sum.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("efficiency sum = %v, want 1", sum)
	}
}

func TestExplainNonBoolean(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "x", "y")
	d.MustInsert("R", true, Int(1), Int(10))
	d.MustInsert("R", true, Int(1), Int(20))
	d.MustInsert("R", true, Int(2), Int(30))
	q, err := ParseQuery(`q(x) :- R(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	es, err := Explain(context.Background(), d, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("explanations = %d, want 2", len(es))
	}
	// x=1 has two symmetric witnesses: each gets 1/2.
	for _, f := range es[0].Ranking {
		if got := es[0].Values[f]; got.Cmp(big.NewRat(1, 2)) != 0 {
			t.Errorf("Shapley = %v, want 1/2", got)
		}
	}
	// x=2 has a single dictator fact.
	if got := es[1].Values[es[1].Ranking[0]]; got.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("Shapley = %v, want 1", got)
	}
}

func TestExplainBooleanRejectsNonBoolean(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "x")
	q, _ := ParseQuery(`q(x) :- R(x)`)
	if _, err := ExplainBoolean(context.Background(), d, q, Options{}); err == nil {
		t.Error("non-Boolean query accepted")
	}
}

func TestExplainBooleanFalseQuery(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "x")
	q, _ := ParseQuery(`q() :- R(99)`)
	exp, err := ExplainBoolean(context.Background(), d, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Ranking) != 0 {
		t.Errorf("false query produced ranking %v", exp.Ranking)
	}
}

func TestExplainProxyFallback(t *testing.T) {
	d, _ := flights.Build()
	q := flights.Query()
	exp, err := ExplainBoolean(context.Background(), d, q, Options{Timeout: 10 * time.Second, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Method != MethodProxy {
		t.Fatalf("method = %v, want proxy", exp.Method)
	}
	if len(exp.Ranking) == 0 {
		t.Fatal("proxy fallback produced no ranking")
	}
	_ = exp.Score(exp.Ranking[0]) // must not panic on proxy scores
}

func TestShapleyViaProbabilisticDB(t *testing.T) {
	d, fs := flights.Build()
	v, err := ShapleyViaProbabilisticDB(context.Background(), d, flights.Query())
	if err != nil {
		t.Fatal(err)
	}
	if got := v[fs.A[1].ID]; got.Cmp(big.NewRat(43, 105)) != 0 {
		t.Errorf("via PQE Shapley(a1) = %v, want 43/105", got)
	}
}

func TestHierarchical(t *testing.T) {
	h, _ := ParseQuery(`q() :- R(x), S(x, y)`)
	if !Hierarchical(h) {
		t.Error("hierarchical query misclassified")
	}
	nh, _ := ParseQuery(`q() :- R(x), S(x, y), T(y)`)
	if Hierarchical(nh) {
		t.Error("non-hierarchical query misclassified")
	}
	if Hierarchical(flights.Query()) {
		t.Error("the flights UCQ's q2 disjunct is non-hierarchical")
	}
}

// TestBagSemanticsByFactCopies exercises the paper's closing observation:
// bag semantics is supported as-is by giving each copy of a tuple its own
// fact identity. Two identical R-tuples become two symmetric facts that
// split the contribution equally.
func TestBagSemanticsByFactCopies(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "x")
	c1 := d.MustInsert("R", true, Int(1)) // first copy of R(1)
	c2 := d.MustInsert("R", true, Int(1)) // second copy of R(1)
	q, _ := ParseQuery(`q() :- R(1)`)
	exp, err := ExplainBoolean(context.Background(), d, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Values[c1.ID].Cmp(exp.Values[c2.ID]) != 0 {
		t.Errorf("copies got different values: %v vs %v", exp.Values[c1.ID], exp.Values[c2.ID])
	}
	if got := exp.Values[c1.ID]; got.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("each copy = %v, want 1/2", got)
	}
}

// TestLargerRandomDifferential runs the full exact pipeline against naive
// subset enumeration on randomized multi-relation databases and queries —
// an integration-level differential test beyond the fixed examples.
func TestLargerRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 15; trial++ {
		d := NewDatabase()
		d.CreateRelation("R", "a", "b")
		d.CreateRelation("S", "b", "c")
		var endo []FactID
		for i := 0; i < 4+rng.Intn(4); i++ {
			f := d.MustInsert("R", true, Int(int64(rng.Intn(3))), Int(int64(rng.Intn(3))))
			endo = append(endo, f.ID)
		}
		for i := 0; i < 3+rng.Intn(3); i++ {
			f := d.MustInsert("S", true, Int(int64(rng.Intn(3))), Int(int64(rng.Intn(3))))
			endo = append(endo, f.ID)
		}
		q, _ := ParseQuery(`q() :- R(a, b), S(b, c)`)
		exp, err := ExplainBoolean(context.Background(), d, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth by re-running the query on every endogenous subset.
		game := func(subset map[FactID]bool) bool {
			sub := d.WithEndogenousSubset(subset)
			e2, err := ExplainBoolean(context.Background(), sub, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Query true on sub-database iff lineage over remaining facts,
			// all present, evaluates true — i.e. any ranking fact exists or
			// the efficiency sum is 1.
			return e2.Values.Sum().Sign() > 0
		}
		want, err := core.NaiveShapley(game, endo)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range endo {
			got := exp.Values[f]
			if got == nil {
				got = new(big.Rat)
			}
			if got.Cmp(want[f]) != 0 {
				t.Fatalf("trial %d fact %d: pipeline %v, naive %v", trial, f, got, want[f])
			}
		}
	}
}

// knobsFixture is a random two-relation database over which q(a) :- R(a,
// b), S(b, c) has several answers, drawn from seed.
func knobsFixture(t *testing.T, seed int64) (*Database, *Query) {
	t.Helper()
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "b", "c")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 18; i++ {
		d.MustInsert("R", true, Int(int64(i%6)), Int(int64(rng.Intn(4))))
	}
	for i := 0; i < 12; i++ {
		d.MustInsert("S", true, Int(int64(rng.Intn(4))), Int(int64(rng.Intn(3))))
	}
	q, err := ParseQuery(`q(a) :- R(a, b), S(b, c)`)
	if err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestExplainParallelMatchesSerial runs the facade end to end with the
// per-answer fan-out enabled, under both strategies and with the value
// cache off and on, on the seed-7 fixture.
func TestExplainParallelMatchesSerial(t *testing.T) {
	checkKnobsMatchSerial(t, 7, []int{4, 8})
}

// TestExplainCompileKnobsMatchBaseline drives the value cache and the
// strategy through the facade, at one worker or several, on the seed-11
// fixture.
func TestExplainCompileKnobsMatchBaseline(t *testing.T) {
	checkKnobsMatchSerial(t, 11, []int{1, 4})
}

// checkKnobsMatchSerial explains seed's knobsFixture under every
// combination of the given worker counts, the auto and per-fact
// strategies and the value cache off and on, and asserts that each result
// slice is identical to the serial, cache-free run: same tuple order,
// methods, fact counts and rankings, same exact rationals.
func checkKnobsMatchSerial(t *testing.T, seed int64, workerCounts []int) {
	t.Helper()
	ctx := context.Background()
	d, q := knobsFixture(t, seed)
	serial, err := Explain(ctx, d, q, Options{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) < 2 {
		t.Fatalf("seed %d: want a multi-answer query, got %d answers", seed, len(serial))
	}
	for _, workers := range workerCounts {
		for _, strategy := range []ShapleyStrategy{StrategyAuto, StrategyPerFact} {
			for _, cacheSize := range []int{-1, 64} {
				opts := Options{Workers: workers, Strategy: strategy, CacheSize: cacheSize}
				got, err := Explain(ctx, d, q, opts)
				if err != nil {
					t.Fatalf("seed %d %+v: %v", seed, opts, err)
				}
				if len(got) != len(serial) {
					t.Fatalf("seed %d %+v: %d explanations, serial %d", seed, opts, len(got), len(serial))
				}
				for i, s := range serial {
					g := got[i]
					what := fmt.Sprintf("seed %d %+v answer %d", seed, opts, i)
					if s.Tuple.String() != g.Tuple.String() {
						t.Fatalf("%s: tuple %v, serial %v", what, g.Tuple, s.Tuple)
					}
					if s.Method != g.Method || s.NumFacts != g.NumFacts {
						t.Fatalf("%s: method/facts %v/%d, serial %v/%d", what, g.Method, g.NumFacts, s.Method, s.NumFacts)
					}
					if !slices.Equal(s.Ranking, g.Ranking) {
						t.Fatalf("%s: ranking %v, serial %v", what, g.Ranking, s.Ranking)
					}
					if len(s.Values) != len(g.Values) {
						t.Fatalf("%s: %d values, serial %d", what, len(g.Values), len(s.Values))
					}
					for f, sv := range s.Values {
						if gv := g.Values[f]; gv == nil || gv.Cmp(sv) != 0 {
							t.Fatalf("%s fact %d: %v, serial %v", what, f, gv, sv)
						}
					}
				}
			}
		}
	}
}

func TestExplainCancelledContext(t *testing.T) {
	d, _ := flights.Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Explain(ctx, d, flights.Query(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNegativeZeroIsZero: a float -0 is the value 0 in joins, in query
// constants and in answers (whose key "i0" is the int 0's, as for every
// float that equals an int), and a reopen from the log, which writes -0 as
// 0, changes no answer.
func TestNegativeZeroIsZero(t *testing.T) {
	dir := t.TempDir()
	d := NewDatabase()
	if err := d.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("R", "a")
	d.CreateRelation("S", "a")
	d.MustInsert("R", true, Float(math.Copysign(0, -1)))
	d.MustInsert("S", true, Float(0))
	queries := []struct{ text, want string }{
		{`q() :- R(x), S(x)`, `[""]`},
		{`q() :- R(x), S(y), x = y`, `[""]`},
		{`q() :- R(0.0)`, `[""]`},
		{`q(x) :- R(x)`, `["i0"]`},
	}
	check := func(d *Database, when string) {
		t.Helper()
		for _, c := range queries {
			q, err := ParseQuery(c.text)
			if err != nil {
				t.Fatal(err)
			}
			exps, err := Explain(context.Background(), d, q, Options{CacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(exps))
			for i, e := range exps {
				keys[i] = e.Tuple.Key()
			}
			if got := fmt.Sprintf("%q", keys); got != c.want {
				t.Errorf("%s, %s: answer keys %s, want %s", when, c.text, got, c.want)
			}
		}
	}
	check(d, "before reopen")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after reopen")
}

// TestNULStringAnswersStayApart: answers whose strings hold 0x00 bytes keep
// distinct tuple keys. R = {("a\x00sb", "c"), ("a", "b\x00sc")} gives
// q(x, y) :- R(x, y) two answers, each its own fact's alone (value 1);
// when the key did not escape 0x00 the two merged into one answer with
// both facts at 1/2.
func TestNULStringAnswersStayApart(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	facts := []*Fact{
		d.MustInsert("R", true, String("a\x00sb"), String("c")),
		d.MustInsert("R", true, String("a"), String("b\x00sc")),
	}
	q, err := ParseQuery(`q(x, y) :- R(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := Explain(context.Background(), d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 {
		t.Fatalf("%d answers, want 2: %+v", len(exps), exps)
	}
	for _, e := range exps {
		var own *Fact
		for _, f := range facts {
			if f.Tuple.Equal(e.Tuple) {
				own = f
			}
		}
		if own == nil {
			t.Fatalf("answer %q matches no fact", e.Tuple)
		}
		if v := e.Values[own.ID]; len(e.Values) != 1 || v == nil || v.Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("answer %q: values %v, want fact %d alone at 1", e.Tuple, e.Values, own.ID)
		}
	}
}

// TestRatFloatMatchesFloat64 pins ratFloat, Score's conversion, to
// big.Rat.Float64 bit for bit: on random rationals whose numerators and
// denominators straddle 2^53, the bound of its division fast path, and on
// the edge values themselves.
func TestRatFloatMatchesFloat64(t *testing.T) {
	const exact = 1 << 53
	edges := []int64{0, 1, 2, 3, 7, exact - 1, exact, exact + 1, 3 * exact, math.MaxInt64}
	check := func(n, d int64) {
		t.Helper()
		r := big.NewRat(n, d)
		want, _ := r.Float64()
		if got := ratFloat(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ratFloat(%s) = %v, want %v", r.RatString(), got, want)
		}
	}
	for _, n := range edges {
		for _, d := range edges[1:] {
			check(n, d)
			check(-n, d)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 200000 {
		n := rng.Int63n(4*exact) - 2*exact
		d := 1 + rng.Int63n(2*exact)
		if rng.Intn(2) == 0 {
			n >>= rng.Intn(50)
			d >>= rng.Intn(50)
		}
		check(n, max(d, 1))
	}
}
