package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/tpch"
)

// databaseKinds names the two ways a database runs: in memory, or
// persistent with every mutation logged to a directory first.
var databaseKinds = []string{"memory", "persistent"}

// newTestDB returns an empty database of the named kind.
func newTestDB(t *testing.T, kind string) *db.Database {
	t.Helper()
	d := db.New()
	if kind == "persistent" {
		if err := d.Persist(db.PersistConfig{Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
	}
	return d
}

// answerSig renders an answer list as comparable strings: tuple key plus
// the sorted lineage variable set (the lineage's semantics up to circuit
// structure, which the two engines may legitimately build differently).
func answerSig(answers []Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = fmt.Sprintf("%s|%v", a.Tuple.Key(), circuit.Vars(a.Lineage))
	}
	return out
}

// derivSig renders a derivation list as an order-insensitive multiset map.
func derivSig(derivs []Derivation) map[string]int {
	out := make(map[string]int)
	for _, dv := range derivs {
		out[dv.Tuple.Key()+"|"+supportKey(dv.Facts)]++
	}
	return out
}

// TestStreamingMatchesMaterializedRandom is the evaluation rewrite's
// correctness bar: on randomized databases and a query zoo covering joins,
// self-joins, constants, repeated variables, and filters, the streaming
// engine must produce answer-for-answer identical results to the
// materialized reference — in memory and persistent — and deriveCQ must
// produce the identical derivation multiset.
func TestStreamingMatchesMaterializedRandom(t *testing.T) {
	queryZoo := []string{
		`q(x) :- R(x, y)`,
		`q(x, z) :- R(x, y), S(y, z)`,
		`q() :- R(x, y), S(y, z), T(z)`,
		`q(x) :- R(x, x)`,
		`q(x) :- R(x, y), R(y, z)`,
		`q(x) :- R(x, y), T(y), y > 0`,
		`q(x, y) :- R(x, y), S(y, z), x < z`,
		`q(x) :- R(x, y), S(y, z), x != z`,
		`q(x) :- R(1, x)`,
		"q(x) :- R(x, y), T(x)\nq(x) :- S(x, y), T(y)",
	}
	for _, kind := range databaseKinds {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 6; trial++ {
				d := newTestDB(t, kind)
				d.CreateRelation("R", "a", "b")
				d.CreateRelation("S", "a", "b")
				d.CreateRelation("T", "a")
				n := 4 + rng.Intn(20)
				for i := 0; i < n; i++ {
					v := func() db.Value { return db.Int(int64(rng.Intn(4))) }
					switch rng.Intn(3) {
					case 0:
						d.MustInsert("R", rng.Intn(3) != 0, v(), v())
					case 1:
						d.MustInsert("S", rng.Intn(3) != 0, v(), v())
					default:
						d.MustInsert("T", rng.Intn(3) != 0, v())
					}
				}
				for qi, text := range queryZoo {
					q, err := query.Parse(text)
					if err != nil {
						t.Fatal(err)
					}
					sb, mb := circuit.NewBuilder(), circuit.NewBuilder()
					stream, err := Eval(d, q, sb, Options{Mode: ModeEndogenous})
					if err != nil {
						t.Fatalf("trial %d q%d: streaming: %v", trial, qi, err)
					}
					mat, err := EvalMaterialized(d, q, mb, Options{Mode: ModeEndogenous})
					if err != nil {
						t.Fatalf("trial %d q%d: materialized: %v", trial, qi, err)
					}
					ss, ms := answerSig(stream), answerSig(mat)
					if len(ss) != len(ms) {
						t.Fatalf("trial %d q%d: %d streaming answers, %d materialized", trial, qi, len(ss), len(ms))
					}
					for i := range ss {
						if ss[i] != ms[i] {
							t.Fatalf("trial %d q%d answer %d: streaming %s, materialized %s", trial, qi, i, ss[i], ms[i])
						}
					}
					// Derivation-level identity, disjunct by disjunct.
					for di := range q.Disjuncts {
						sd, err := deriveCQ(d, &q.Disjuncts[di], -1, nil)
						if err != nil {
							t.Fatal(err)
						}
						md, err := deriveCQMaterialized(d, &q.Disjuncts[di], -1, nil)
						if err != nil {
							t.Fatal(err)
						}
						ssig, msig := derivSig(sd), derivSig(md)
						if len(ssig) != len(msig) {
							t.Fatalf("trial %d q%d disjunct %d: %d vs %d distinct derivations",
								trial, qi, di, len(ssig), len(msig))
						}
						for k, c := range msig {
							if ssig[k] != c {
								t.Fatalf("trial %d q%d disjunct %d: derivation %q count %d, want %d",
									trial, qi, di, k, ssig[k], c)
							}
						}
					}
				}
			}
		})
	}
}

// groundScales are the TPC-H scale factors of
// TestStreamingMatchesMaterializedTPCH and BenchmarkGround.
var groundScales = []float64{1, 4, 16}

// TestStreamingMatchesMaterializedTPCH runs both engines over every TPC-H
// query at each of groundScales: the answers must have identical tuples, in
// the same order, with identical lineage variable sets.
func TestStreamingMatchesMaterializedTPCH(t *testing.T) {
	for _, scale := range groundScales {
		d := tpch.Generate(tpch.DefaultConfig().Scaled(scale))
		for _, nq := range tpch.Queries() {
			stream, err := Eval(d, nq.Q, circuit.NewBuilder(), Options{Mode: ModeEndogenous})
			if err != nil {
				t.Fatalf("scale %g %s: streaming: %v", scale, nq.Name, err)
			}
			mat, err := EvalMaterialized(d, nq.Q, circuit.NewBuilder(), Options{Mode: ModeEndogenous})
			if err != nil {
				t.Fatalf("scale %g %s: materialized: %v", scale, nq.Name, err)
			}
			ss, ms := answerSig(stream), answerSig(mat)
			if len(ss) != len(ms) {
				t.Fatalf("scale %g %s: %d streaming answers, %d materialized", scale, nq.Name, len(ss), len(ms))
			}
			for i := range ss {
				if ss[i] != ms[i] {
					t.Fatalf("scale %g %s answer %d: streaming %s, materialized %s", scale, nq.Name, i, ss[i], ms[i])
				}
			}
		}
	}
}

// TestStreamingDeltaMatchesMaterialized pins every atom position of a
// self-join query to a fresh fact and checks the streaming delta join
// produces the materialized engine's derivation multiset.
func TestStreamingDeltaMatchesMaterialized(t *testing.T) {
	for _, kind := range databaseKinds {
		t.Run(kind, func(t *testing.T) {
			d := newTestDB(t, kind)
			d.CreateRelation("R", "a", "b")
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 15; i++ {
				d.MustInsert("R", true, db.Int(int64(rng.Intn(4))), db.Int(int64(rng.Intn(4))))
			}
			cq := query.CQ{
				Head: []string{"x"},
				Atoms: []query.Atom{
					{Relation: "R", Args: []query.Term{query.V("x"), query.V("y")}},
					{Relation: "R", Args: []query.Term{query.V("y"), query.V("z")}},
				},
			}
			f := d.MustInsert("R", true, db.Int(2), db.Int(3))
			for pin := 0; pin < len(cq.Atoms); pin++ {
				sd, err := deriveCQ(d, &cq, pin, f)
				if err != nil {
					t.Fatal(err)
				}
				md, err := deriveCQMaterialized(d, &cq, pin, f)
				if err != nil {
					t.Fatal(err)
				}
				ssig, msig := derivSig(sd), derivSig(md)
				if len(ssig) != len(msig) {
					t.Fatalf("pin %d: %d vs %d distinct derivations", pin, len(ssig), len(msig))
				}
				for k, c := range msig {
					if ssig[k] != c {
						t.Fatalf("pin %d: derivation %q count %d, want %d", pin, k, ssig[k], c)
					}
				}
				// Every delta derivation must actually use the pinned fact.
				for _, dv := range sd {
					found := false
					for _, sf := range dv.Facts {
						if sf.ID == f.ID {
							found = true
						}
					}
					if !found {
						t.Fatalf("pin %d: derivation %v does not use the pinned fact", pin, dv)
					}
				}
			}
		})
	}
}

// TestFilterPushdownEdgeCases covers the planner's filter placement:
// var-to-var filters whose operands bind in different atoms, filters on
// variables the head projects away, and filters alongside empty relations.
func TestFilterPushdownEdgeCases(t *testing.T) {
	d := db.New()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "b", "c")
	d.CreateRelation("Empty", "x")
	d.MustInsert("R", true, db.Int(1), db.Int(10))
	d.MustInsert("R", true, db.Int(2), db.Int(20))
	d.MustInsert("R", true, db.Int(3), db.Int(30))
	d.MustInsert("S", true, db.Int(10), db.Int(5))
	d.MustInsert("S", true, db.Int(20), db.Int(25))
	d.MustInsert("S", true, db.Int(30), db.Int(25))

	run := func(text string) []Answer {
		t.Helper()
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := Eval(d, q, circuit.NewBuilder(), Options{Mode: ModeEndogenous})
		if err != nil {
			t.Fatal(err)
		}
		return answers
	}

	// Var-to-var filter with operands bound by different atoms: x from R,
	// c from S. All three join rows (1,10,5), (2,20,25), (3,30,25) satisfy
	// x < c; tightening to x + nothing else changes with x > c.
	if got := run(`q(x) :- R(x, y), S(y, c), x < c`); len(got) != 3 {
		t.Errorf("cross-atom var filter: %d answers, want 3", len(got))
	}
	if got := run(`q(x) :- R(x, y), S(y, c), x > c`); len(got) != 0 {
		t.Errorf("cross-atom var filter (none pass): %d answers, want 0", len(got))
	}
	// Same filter written with operands in the reverse binding order; the
	// surviving rows project to c ∈ {5, 25} and grouping collapses the two
	// c = 25 rows.
	if got := run(`q(c) :- S(y, c), R(x, y), c > x`); len(got) != 2 {
		t.Errorf("reverse cross-atom filter: %d answers, want 2", len(got))
	}
	// Filter on a projected-away variable: y never reaches the head but
	// still gates the join.
	if got := run(`q(x) :- R(x, y), y >= 20`); len(got) != 2 {
		t.Errorf("projected-away filter: %d answers, want 2", len(got))
	}
	// A filter that no row satisfies yields zero answers, not an error.
	if got := run(`q(x) :- R(x, y), y > 1000`); len(got) != 0 {
		t.Errorf("unsatisfiable filter: %d answers, want 0", len(got))
	}
	// Empty-relation scans yield zero derivations, not errors — with and
	// without filters attached.
	if got := run(`q(x) :- Empty(x)`); len(got) != 0 {
		t.Errorf("empty scan: %d answers, want 0", len(got))
	}
	if got := run(`q(x) :- Empty(x), R(x, y), x > 0`); len(got) != 0 {
		t.Errorf("empty join: %d answers, want 0", len(got))
	}
}

// TestPlanShapes pins down planner invariants: pinned atoms order first,
// lookup key positions are ascending, and every filter lands on a step.
func TestPlanShapes(t *testing.T) {
	d := db.New()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "b", "c")
	d.MustInsert("R", true, db.Int(1), db.Int(2))
	d.MustInsert("S", true, db.Int(2), db.Int(3))

	q, err := query.Parse(`q(x) :- R(x, y), S(y, z), x < z`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planCQ(d, &q.Disjuncts[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.steps[0].pinned {
		t.Error("pinned atom did not order first")
	}
	if !p.sortedKeyPositions() {
		t.Error("lookup key positions are not ascending")
	}
	nf := 0
	for _, st := range p.steps {
		nf += len(st.filters)
	}
	if nf != len(q.Disjuncts[0].Filters) {
		t.Errorf("%d filters placed, want %d", nf, len(q.Disjuncts[0].Filters))
	}
	// The x < z filter binds fully only after the second step.
	if len(p.steps[0].filters) != 0 {
		t.Error("filter pushed above the step binding its variables")
	}
}
