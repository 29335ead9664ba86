package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
)

// checkAgainstEval asserts that the incrementally maintained answers are
// semantically identical to a cold Eval on the same database: same tuples,
// and for each tuple a lineage with the same satisfying assignments over the
// union of both variable sets.
func checkAgainstEval(t *testing.T, inc *Incremental, d *db.Database, q *query.UCQ, opts Options) {
	t.Helper()
	cb := circuit.NewBuilder()
	cold, err := Eval(d, q, cb, opts)
	if err != nil {
		t.Fatalf("cold Eval: %v", err)
	}
	live := inc.Answers()
	if len(live) != len(cold) {
		t.Fatalf("incremental has %d answers, cold Eval %d", len(live), len(cold))
	}
	for i := range cold {
		if !cold[i].Tuple.Equal(live[i].Tuple) {
			t.Fatalf("answer %d: tuple %v vs cold %v", i, live[i].Tuple, cold[i].Tuple)
		}
		vars := map[circuit.Var]bool{}
		for _, v := range circuit.Vars(cold[i].Lineage) {
			vars[v] = true
		}
		for _, v := range circuit.Vars(live[i].Lineage) {
			vars[v] = true
		}
		universe := make([]circuit.Var, 0, len(vars))
		for v := range vars {
			universe = append(universe, v)
		}
		if len(universe) > 14 {
			t.Fatalf("universe too large for brute force: %d", len(universe))
		}
		assign := make(map[circuit.Var]bool, len(universe))
		var rec func(int)
		rec = func(j int) {
			if j == len(universe) {
				if circuit.Eval(cold[i].Lineage, assign) != circuit.Eval(live[i].Lineage, assign) {
					t.Fatalf("answer %v: lineages differ under %v", cold[i].Tuple, assign)
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
