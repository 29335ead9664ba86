package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
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

// TestExplainParallelMatchesSerial runs the facade end-to-end with the
// per-answer fan-out enabled and asserts the result slice is identical —
// same order, same methods, same exact rationals — to the serial run.
func TestExplainParallelMatchesSerial(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "b", "c")
	rng := rand.New(rand.NewSource(7))
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
	serial, err := Explain(context.Background(), d, q, Options{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) < 2 {
		t.Fatalf("want a multi-answer query, got %d answers", len(serial))
	}
	parallel, err := Explain(context.Background(), d, q, Options{Workers: 8, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("parallel produced %d explanations, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Tuple.String() != p.Tuple.String() {
			t.Fatalf("answer %d: tuple order diverged: %v vs %v", i, p.Tuple, s.Tuple)
		}
		if s.Method != p.Method || s.NumFacts != p.NumFacts {
			t.Fatalf("answer %d: method/facts diverged", i)
		}
		if len(s.Ranking) != len(p.Ranking) {
			t.Fatalf("answer %d: ranking lengths diverged", i)
		}
		for j := range s.Ranking {
			if s.Ranking[j] != p.Ranking[j] {
				t.Fatalf("answer %d: ranking[%d] = %d, serial %d", i, j, p.Ranking[j], s.Ranking[j])
			}
		}
		for f, sv := range s.Values {
			if pv := p.Values[f]; pv == nil || pv.Cmp(sv) != 0 {
				t.Fatalf("answer %d fact %d: parallel %v, serial %v", i, f, pv, sv)
			}
		}
	}
}

// TestExplainCompileKnobsMatchBaseline drives the two PR-3 knobs through
// the facade: a parallel compiler and a canonically-keyed (or ablated)
// cache must leave every explanation identical to the serial,
// cache-disabled baseline.
func TestExplainCompileKnobsMatchBaseline(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "b", "c")
	rng := rand.New(rand.NewSource(11))
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
	baseline, err := Explain(context.Background(), d, q, Options{Workers: 1, CompileWorkers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) < 2 {
		t.Fatalf("want a multi-answer query, got %d answers", len(baseline))
	}
	for _, opts := range []Options{
		{Workers: 1, CompileWorkers: 4, CacheSize: -1},      // parallel compiler, no cache
		{Workers: 4, CompileWorkers: 4, CacheSize: 64},      // parallel + canonical cache
		{Workers: 4, CacheSize: 64, NoCanonicalCache: true}, // byte-identical cache ablation
		{Workers: 4, CompileWorkers: -1, CacheSize: 64},     // compile workers forced to GOMAXPROCS
	} {
		got, err := Explain(context.Background(), d, q, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(got) != len(baseline) {
			t.Fatalf("%+v: %d explanations, want %d", opts, len(got), len(baseline))
		}
		for i := range baseline {
			b, g := baseline[i], got[i]
			if b.Tuple.String() != g.Tuple.String() || b.Method != g.Method {
				t.Fatalf("%+v answer %d: tuple/method diverged", opts, i)
			}
			for f, bv := range b.Values {
				if gv := g.Values[f]; gv == nil || gv.Cmp(bv) != 0 {
					t.Fatalf("%+v answer %d fact %d: %v, want %v", opts, i, f, gv, bv)
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
// constants and in answers, and a reopen from the log, which writes -0 as
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
		{`q(x) :- R(x)`, `["f0"]`},
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
