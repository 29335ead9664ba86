package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
)

// checkAgainstEval asserts that the incrementally maintained answers are
// semantically identical to a cold Eval on the same database: the same
// tuples, kind by kind, and for each tuple a lineage with the same
// satisfying assignments over the union of both variable sets.
func checkAgainstEval(t *testing.T, inc *Incremental, d *db.Database, q *query.UCQ, opts Options) {
	t.Helper()
	cold, err := Eval(d, q, circuit.NewBuilder(), opts)
	if err != nil {
		t.Fatalf("cold Eval: %v", err)
	}
	requireSameAnswers(t, "incremental vs cold Eval", inc.Answers(), cold, true)
}

// requireSameAnswers fails unless got and want hold the same answer keys
// in the same order (and, with kinds, tuples of the same kinds too), each
// with a lineage of the same satisfying assignments over the union of both
// variable sets.
func requireSameAnswers(t *testing.T, what string, got, want []Answer, kinds bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers %v, want %d %v", what, len(got), tuples(got), len(want), tuples(want))
	}
	for i := range want {
		if got[i].Tuple.Key() != want[i].Tuple.Key() || kinds && kindOrder(got[i].Tuple, want[i].Tuple) != 0 {
			t.Fatalf("%s: answer %d is %v, want %v", what, i, kindsOf(got[i].Tuple), kindsOf(want[i].Tuple))
		}
		vars := map[circuit.Var]bool{}
		for _, v := range circuit.Vars(want[i].Lineage) {
			vars[v] = true
		}
		for _, v := range circuit.Vars(got[i].Lineage) {
			vars[v] = true
		}
		universe := make([]circuit.Var, 0, len(vars))
		for v := range vars {
			universe = append(universe, v)
		}
		if len(universe) > 14 {
			t.Fatalf("%s: universe too large for brute force: %d", what, len(universe))
		}
		assign := make(map[circuit.Var]bool, len(universe))
		var rec func(int)
		rec = func(j int) {
			if j == len(universe) {
				if circuit.Eval(want[i].Lineage, assign) != circuit.Eval(got[i].Lineage, assign) {
					t.Fatalf("%s: answer %v: lineages differ under %v", what, want[i].Tuple, assign)
				}
				return
			}
			assign[universe[j]] = false
			rec(j + 1)
			assign[universe[j]] = true
			rec(j + 1)
		}
		rec(0)
	}
}

// tuples lists the answers' tuples with their kinds.
func tuples(answers []Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = kindsOf(a.Tuple)
	}
	return out
}

// kindsOf renders a tuple with each value's kind, as "(int 3, float 3)".
func kindsOf(t db.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%v %q", v.Kind(), v.String())
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func TestIncrementalMatchesEvalUnderRandomUpdates(t *testing.T) {
	queries := []string{
		`q(x) :- R(x, y), S(y, z)`,
		`q() :- R(x, y), R(y, z)`, // self-join, Boolean
		"q(x) :- R(x, y), S(y, z)\nq(x) :- T(x)",
		`q(x) :- R(x, y), T(y), y > 1`,
	}
	for qi, text := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + qi)))
			for trial := 0; trial < 8; trial++ {
				d := db.New()
				d.CreateRelation("R", "a", "b")
				d.CreateRelation("S", "a", "b")
				d.CreateRelation("T", "a")
				randFact := func() (string, []db.Value) {
					switch rng.Intn(3) {
					case 0:
						return "R", []db.Value{db.Int(int64(rng.Intn(4))), db.Int(int64(rng.Intn(4)))}
					case 1:
						return "S", []db.Value{db.Int(int64(rng.Intn(4))), db.Int(int64(rng.Intn(4)))}
					default:
						return "T", []db.Value{db.Int(int64(rng.Intn(4)))}
					}
				}
				for i := 0; i < 4; i++ {
					rel, vals := randFact()
					d.MustInsert(rel, rng.Intn(4) != 0, vals...)
				}
				q, err := query.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Mode: ModeEndogenous}
				inc, err := NewIncremental(context.Background(), d, q, circuit.NewBuilder(), opts)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstEval(t, inc, d, q, opts)
				for step := 0; step < 10; step++ {
					if rng.Intn(2) == 0 && d.NumFacts() > 0 {
						// Delete a random live fact.
						var ids []db.FactID
						for _, name := range d.RelationNames() {
							for _, f := range d.Relation(name).Facts() {
								ids = append(ids, f.ID)
							}
						}
						id := ids[rng.Intn(len(ids))]
						if err := d.Delete(id); err != nil {
							t.Fatal(err)
						}
						inc.Delete(id)
					} else {
						rel, vals := randFact()
						f := d.MustInsert(rel, rng.Intn(4) != 0, vals...)
						if _, err := inc.Insert(f); err != nil {
							t.Fatal(err)
						}
					}
					checkAgainstEval(t, inc, d, q, opts)
				}
			}
		})
	}
}

func TestIncrementalEpochsAndChangedTuples(t *testing.T) {
	d := db.New()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "a", "b")
	r1 := d.MustInsert("R", true, db.Int(1), db.Int(2))
	d.MustInsert("S", true, db.Int(2), db.Int(3))
	q, err := query.Parse(`q(x) :- R(x, y), S(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(context.Background(), d, q, circuit.NewBuilder(), Options{Mode: ModeEndogenous})
	if err != nil {
		t.Fatal(err)
	}
	live := inc.Live()
	if len(live) != 1 || inc.Epoch() != 0 {
		t.Fatalf("initial: %d answers, epoch %d; want 1, 0", len(live), inc.Epoch())
	}
	e0 := live[0].Epoch

	// An insert that derives nothing new must not bump any epoch.
	f := d.MustInsert("S", true, db.Int(9), db.Int(9))
	changed, err := inc.Insert(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 || inc.Epoch() != 0 {
		t.Fatalf("no-op insert: changed=%v epoch=%d", changed, inc.Epoch())
	}

	// A second witness for the same tuple changes its lineage and epoch.
	f2 := d.MustInsert("S", true, db.Int(2), db.Int(7))
	changed, err = inc.Insert(f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || !changed[0].Equal(db.Tuple{db.Int(1)}) {
		t.Fatalf("witness insert: changed=%v", changed)
	}
	live = inc.Live()
	if live[0].Epoch <= e0 {
		t.Fatalf("epoch did not advance: %d -> %d", e0, live[0].Epoch)
	}

	// Deleting the only R fact removes the answer entirely.
	if err := d.Delete(r1.ID); err != nil {
		t.Fatal(err)
	}
	gone := inc.Delete(r1.ID)
	if len(gone) != 1 {
		t.Fatalf("delete changed %v, want the one answer", gone)
	}
	if n := len(inc.Answers()); n != 0 {
		t.Fatalf("answers after delete = %d, want 0", n)
	}
	// Deleting a fact that supports nothing is a no-op.
	if got := inc.Delete(f.ID); got != nil {
		t.Fatalf("no-op delete changed %v", got)
	}
}

// TestIncrementalReleasesReplacedLineage: once maintenance replaced a
// lineage, its root is garbage, whether the first build or a later rebuild
// made it. Interning every rebuild into the builder the Incremental was
// opened with kept replaced nodes alive in its unique tables, so a
// long-lived Incremental grew with every update it absorbed.
func TestIncrementalReleasesReplacedLineage(t *testing.T) {
	ctx := context.Background()
	d := db.New()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "a", "b")
	d.MustInsert("R", true, db.Int(1), db.Int(2))
	d.MustInsert("S", true, db.Int(2), db.Int(3))
	q, err := query.Parse(`q(x) :- R(x, y), S(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(ctx, d, q, circuit.NewBuilder(), Options{Mode: ModeEndogenous})
	if err != nil {
		t.Fatal(err)
	}
	root := func() weak.Pointer[circuit.Node] { return weak.Make(inc.Live()[0].Lineage) }
	var replaced []weak.Pointer[circuit.Node]
	for z := int64(4); z < 7; z++ {
		replaced = append(replaced, root())
		f := d.MustInsert("S", true, db.Int(2), db.Int(z))
		if _, err := inc.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	current := root()
	runtime.GC()
	for i, w := range replaced {
		if w.Value() != nil {
			t.Errorf("lineage root of build %d survived its replacement", i)
		}
	}
	if current.Value() == nil {
		t.Fatal("the current lineage root was collected")
	}
	runtime.KeepAlive(inc)
}

// TestIncrementalLowersSharedSupportHead: one support set can witness
// Equal heads of two kinds. In q(x) :- R(x, a), R(y, b), x = y, a != b
// over R(3, "p") and R(3.0, "q"), the two facts witness head 3 one way
// round and head 3.0 the other, and no other derivation exists. Whichever
// witness the Incremental meets first, the answer must show the least
// head, 3, as a cold Eval does.
func TestIncrementalLowersSharedSupportHead(t *testing.T) {
	q, err := query.Parse(`q(x) :- R(x, a), R(y, b), x = y, a != b`)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeEndogenous}
	for _, order := range [][2]db.Value{{db.Int(3), db.Float(3)}, {db.Float(3), db.Int(3)}} {
		d := db.New()
		d.CreateRelation("R", "a", "b")
		inc, err := NewIncremental(context.Background(), d, q, circuit.NewBuilder(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			f := d.MustInsert("R", true, v, db.String([]string{"p", "q"}[i]))
			if _, err := inc.Insert(f); err != nil {
				t.Fatal(err)
			}
			checkAgainstEval(t, inc, d, q, opts)
		}
		if got := inc.Answers()[0].Tuple[0]; got.Kind() != db.KindInt {
			t.Fatalf("inserting %v then %v: answer %v is a %v, want the int", order[0], order[1], got, got.Kind())
		}
	}
}
