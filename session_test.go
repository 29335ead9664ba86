package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/imdb"
	"repro/internal/tpch"
)

// assertExplanationsEqual asserts tuple-for-tuple, fact-for-fact equality —
// big.Rat-identical values, identical rankings — between two explanation
// slices.
func assertExplanationsEqual(t *testing.T, got, want []TupleExplanation, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d explanations, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if !g.Tuple.Equal(w.Tuple) {
			t.Fatalf("%s: tuple %d is %v, want %v", label, i, g.Tuple, w.Tuple)
		}
		if g.Method != w.Method {
			t.Fatalf("%s: tuple %v method %v, want %v", label, g.Tuple, g.Method, w.Method)
		}
		if g.NumFacts != w.NumFacts {
			t.Fatalf("%s: tuple %v has %d facts, want %d", label, g.Tuple, g.NumFacts, w.NumFacts)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s: tuple %v has %d values, want %d", label, g.Tuple, len(g.Values), len(w.Values))
		}
		for f, v := range w.Values {
			gv, ok := g.Values[f]
			if !ok {
				t.Fatalf("%s: tuple %v missing value for fact %d", label, g.Tuple, f)
			}
			if gv.Cmp(v) != 0 {
				t.Fatalf("%s: tuple %v fact %d = %v, want %v", label, g.Tuple, f, gv, v)
			}
		}
		if len(g.Ranking) != len(w.Ranking) {
			t.Fatalf("%s: tuple %v ranking %v, want %v", label, g.Tuple, g.Ranking, w.Ranking)
		}
		for j := range w.Ranking {
			if g.Ranking[j] != w.Ranking[j] {
				t.Fatalf("%s: tuple %v ranking %v, want %v", label, g.Tuple, g.Ranking, w.Ranking)
			}
		}
	}
}

// TestSessionMatchesColdExplainUnderUpdates is the PR's correctness bar:
// after any randomized insert/delete interleaving, Session.Explain must be
// big.Rat-identical to a cold Explain on the mutated database.
func TestSessionMatchesColdExplainUnderUpdates(t *testing.T) {
	queries := []string{
		`q(x) :- R(x, y), S(y, z)`,
		"q(x) :- R(x, y), S(y, z)\nq(x) :- T(x)",
		`q() :- R(x, y), R(y, z)`,
		`q(x) :- R(x, y), T(y), y > 0`,
	}
	sessionOpts := []Options{
		{Workers: 1, CacheSize: -1},
		{Workers: 4, CacheSize: 32},
		{Workers: 2, CacheSize: 32, Strategy: StrategyPerFact},
		{CacheSize: 32, Strategy: StrategyGradient},
	}
	for qi, text := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + qi)))
			q, err := ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 4; trial++ {
				// The last options entry runs over a persistent database:
				// the update interleaving property must hold identically
				// when every mutation is logged before it is applied.
				d := NewDatabase()
				if trial == len(sessionOpts)-1 {
					if err := d.Persist(PersistConfig{Dir: t.TempDir()}); err != nil {
						t.Fatal(err)
					}
					defer d.Close()
				}
				d.CreateRelation("R", "a", "b")
				d.CreateRelation("S", "a", "b")
				d.CreateRelation("T", "a")
				randFact := func() (string, []Value) {
					switch rng.Intn(3) {
					case 0:
						return "R", []Value{Int(int64(rng.Intn(3))), Int(int64(rng.Intn(3)))}
					case 1:
						return "S", []Value{Int(int64(rng.Intn(3))), Int(int64(rng.Intn(3)))}
					default:
						return "T", []Value{Int(int64(rng.Intn(3)))}
					}
				}
				for i := 0; i < 5; i++ {
					rel, vals := randFact()
					d.MustInsert(rel, rng.Intn(4) != 0, vals...)
				}
				s, err := Open(d, q, sessionOpts[trial%len(sessionOpts)])
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 8; step++ {
					if rng.Intn(2) == 0 && d.NumFacts() > 0 {
						var ids []FactID
						for _, name := range d.RelationNames() {
							for _, f := range d.Relation(name).Facts() {
								ids = append(ids, f.ID)
							}
						}
						if err := s.Delete(ids[rng.Intn(len(ids))]); err != nil {
							t.Fatal(err)
						}
					} else {
						rel, vals := randFact()
						if _, err := s.Insert(rel, rng.Intn(4) != 0, vals...); err != nil {
							t.Fatal(err)
						}
					}
					live, err := s.Explain(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					cold, err := Explain(context.Background(), d, q, Options{CacheSize: -1})
					if err != nil {
						t.Fatal(err)
					}
					assertExplanationsEqual(t, live, cold,
						fmt.Sprintf("trial %d step %d", trial, step))
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSessionMatchesColdExplainOnCorpus deletes k facts of live lineages
// through a session, for k = 1, 2, 4 and 8, on corpus queries of both
// datasets at their default scale, and then restores them. After every
// step the session's explanations must be big.Rat-identical to a cold
// explain. Neither side has a timeout, so every tuple is exact.
func TestSessionMatchesColdExplainOnCorpus(t *testing.T) {
	type corpusQuery struct {
		name string
		d    *Database
		q    *Query
	}
	var cases []corpusQuery
	for _, nq := range tpch.Queries() {
		switch nq.Name {
		case "q3", "q10", "q19":
			cases = append(cases, corpusQuery{"TPC-H/" + nq.Name, tpch.Generate(tpch.DefaultConfig()), nq.Q})
		}
	}
	for _, nq := range imdb.Queries() {
		switch nq.Name {
		case "1a", "8d":
			cases = append(cases, corpusQuery{"IMDB/" + nq.Name, imdb.Generate(imdb.DefaultConfig()), nq.Q})
		}
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(c.d, c.q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			check := func(label string) []TupleExplanation {
				t.Helper()
				live, err := s.Explain(ctx)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := Explain(ctx, c.d, c.q, Options{Workers: 1, CacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				assertExplanationsEqual(t, live, cold, label)
				return live
			}
			live := check("open")
			for _, k := range []int{1, 2, 4, 8} {
				ids := lineageFacts(live, k)
				if len(ids) < k {
					break
				}
				deleted := make([]Fact, k)
				for i, id := range ids {
					deleted[i] = *c.d.Fact(id)
					if err := s.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("delete %d", k))
				for _, f := range deleted {
					if _, err := s.Insert(f.Relation, f.Endogenous, f.Tuple...); err != nil {
						t.Fatal(err)
					}
				}
				live = check(fmt.Sprintf("restore %d", k))
			}
		})
	}
}

// lineageFacts returns up to k distinct facts of the explanations'
// rankings, taking every tuple's i-th ranked fact before any (i+1)-th, so
// that a batch spreads over the answers.
func lineageFacts(exps []TupleExplanation, k int) []FactID {
	seen := make(map[FactID]bool)
	var out []FactID
	for i := 0; len(out) < k; i++ {
		advanced := false
		for _, e := range exps {
			if i >= len(e.Ranking) {
				continue
			}
			advanced = true
			if f := e.Ranking[i]; !seen[f] && len(out) < k {
				seen[f] = true
				out = append(out, f)
			}
		}
		if !advanced {
			break
		}
	}
	return out
}

// TestSessionReusesUnchangedTuples asserts the incremental-maintenance
// contract: an Explain after an update recomputes only the touched tuples,
// serving every untouched tuple's cached values map by reference.
func TestSessionReusesUnchangedTuples(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "a", "b")
	// Two disjoint join chains -> two answers with independent lineage.
	d.MustInsert("R", true, Int(1), Int(10))
	d.MustInsert("S", true, Int(10), Int(100))
	r2 := d.MustInsert("R", true, Int(2), Int(20))
	d.MustInsert("S", true, Int(20), Int(200))
	q, err := ParseQuery(`q(x) :- R(x, y), S(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("%d answers, want 2", len(first))
	}

	// With no updates, every tuple is served from cache.
	again, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !sameValues(first[i].Values, again[i].Values) {
			t.Errorf("tuple %v recomputed with no updates in between", first[i].Tuple)
		}
	}

	// Deleting a fact of answer 2's lineage leaves answer 1's cache intact.
	if err := s.Delete(r2.ID); err != nil {
		t.Fatal(err)
	}
	after, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("%d answers after delete, want 1", len(after))
	}
	if !after[0].Tuple.Equal(first[0].Tuple) {
		t.Fatalf("surviving tuple %v, want %v", after[0].Tuple, first[0].Tuple)
	}
	if !sameValues(first[0].Values, after[0].Values) {
		t.Error("untouched tuple was recomputed by an unrelated delete")
	}
}

// sameValues reports whether two Values maps are the same map (reference
// identity — the session serves cached explanations without copying).
func sameValues(a, b Values) bool {
	if len(a) != len(b) || len(a) == 0 {
		return len(a) == len(b)
	}
	for f := range a {
		pa, pb := a[f], b[f]
		return pa == pb // same *big.Rat pointer
	}
	return false
}

// TestSessionSurvivesOutOfBandMutation: mutating the Database directly
// (not through the session) must not produce stale explanations — the
// session detects the epoch mismatch and re-grounds.
func TestSessionSurvivesOutOfBandMutation(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "a", "b")
	d.MustInsert("R", true, Int(1), Int(10))
	d.MustInsert("S", true, Int(10), Int(100))
	q, err := ParseQuery(`q(x) :- R(x, y), S(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Explain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Out-of-band: a second chain appears without the session being told.
	d.MustInsert("R", true, Int(2), Int(20))
	d.MustInsert("S", true, Int(20), Int(200))
	live, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Explain(context.Background(), d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	assertExplanationsEqual(t, live, cold, "after out-of-band insert")
}

func TestSessionClosedErrors(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a")
	d.MustInsert("R", true, Int(1))
	q, err := ParseQuery(`q(x) :- R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(context.Background()); err != ErrSessionClosed {
		t.Errorf("Explain on closed session: %v, want ErrSessionClosed", err)
	}
	if _, err := s.Insert("R", true, Int(2)); err != ErrSessionClosed {
		t.Errorf("Insert on closed session: %v, want ErrSessionClosed", err)
	}
	if err := s.Delete(1); err != ErrSessionClosed {
		t.Errorf("Delete on closed session: %v, want ErrSessionClosed", err)
	}
	if err := s.Close(); err != ErrSessionClosed {
		t.Errorf("double Close: %v, want ErrSessionClosed", err)
	}
}

func TestSessionDeleteUnknownFact(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a")
	d.MustInsert("R", true, Int(1))
	q, err := ParseQuery(`q(x) :- R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Delete(999); err == nil {
		t.Error("Delete of an unknown fact succeeded, want error")
	}
}

func TestOptionsValidation(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("R", "a")
	d.MustInsert("R", true, Int(1))
	q, err := ParseQuery(`q(x) :- R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		opts Options
		want string // substring of the error
	}{
		{Options{Timeout: -time.Second}, "Timeout"},
		{Options{MaxNodes: -1}, "MaxNodes"},
		{Options{Workers: -1}, "Workers"},
		{Options{CompileWorkers: -2}, "CompileWorkers"},
		{Options{CacheSize: -2}, "CacheSize"},
		{Options{Strategy: ShapleyStrategy(99)}, "Strategy"},
	}
	for _, tc := range cases {
		if _, err := Explain(context.Background(), d, q, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Explain(%+v) error = %v, want mention of %q", tc.opts, err, tc.want)
		}
		if _, err := Open(d, q, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open(%+v) error = %v, want mention of %q", tc.opts, err, tc.want)
		}
	}
	// The documented sentinels stay valid.
	for _, opts := range []Options{
		{CompileWorkers: -1, CacheSize: -1},
		{},
	} {
		if err := opts.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
}

// TestSessionFlightsUpdateStory replays the paper's running example as an
// interactive session: delete the direct JFK→CDG flight, check the
// explanation shifts, re-insert it, and check the original values return.
func TestSessionFlightsUpdateStory(t *testing.T) {
	d := NewDatabase()
	d.CreateRelation("Flights", "src", "dst")
	d.CreateRelation("Airports", "name", "country")
	var direct *Fact
	for _, f := range [][2]string{
		{"JFK", "CDG"}, {"EWR", "LHR"}, {"BOS", "LHR"}, {"LHR", "CDG"},
		{"LHR", "ORY"}, {"LAX", "MUC"}, {"MUC", "ORY"}, {"LHR", "MUC"},
	} {
		fact := d.MustInsert("Flights", true, String(f[0]), String(f[1]))
		if f[0] == "JFK" {
			direct = fact
		}
	}
	for _, a := range [][2]string{
		{"JFK", "USA"}, {"EWR", "USA"}, {"BOS", "USA"}, {"LAX", "USA"},
		{"LHR", "EN"}, {"MUC", "GR"}, {"ORY", "FR"}, {"CDG", "FR"},
	} {
		d.MustInsert("Airports", false, String(a[0]), String(a[1]))
	}
	q, err := ParseQuery(`
		q() :- Flights(x, y), Airports(x, 'USA'), Airports(y, 'FR')
		q() :- Flights(x, z), Flights(z, y), Airports(x, 'USA'), Airports(y, 'FR')`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	baseline, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 1 || baseline[0].Method != MethodExact {
		t.Fatalf("baseline: %d answers, method %v", len(baseline), baseline[0].Method)
	}
	// The direct flight is the paper's top contributor (43/105).
	if got := baseline[0].Values[direct.ID].RatString(); got != "43/105" {
		t.Fatalf("direct flight value %s, want 43/105", got)
	}

	if err := s.Delete(direct.ID); err != nil {
		t.Fatal(err)
	}
	without, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(without) != 1 {
		t.Fatalf("query should still hold without the direct flight")
	}
	if _, ok := without[0].Values[direct.ID]; ok {
		t.Error("deleted fact still has a Shapley value")
	}
	cold, err := Explain(context.Background(), d, q, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	assertExplanationsEqual(t, without, cold, "after deleting the direct flight")

	// Re-insert (new fact ID) and check the game is isomorphic to the
	// baseline: the new direct flight takes over the 43/105 contribution.
	reinserted, err := s.Insert("Flights", true, String("JFK"), String("CDG"))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := s.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored[0].Values[reinserted.ID].RatString(); got != "43/105" {
		t.Fatalf("re-inserted direct flight value %s, want 43/105", got)
	}
	if len(restored[0].Values) != len(baseline[0].Values) {
		t.Fatalf("restored game has %d facts, baseline %d",
			len(restored[0].Values), len(baseline[0].Values))
	}
}
