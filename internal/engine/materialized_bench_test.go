package engine

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/tpch"
)

// legacyJoinAtom is the joinAtom the materialized engine shipped with: join
// keys are Tuple.Keys of a sub-Tuple allocated per fact and per probe.
// Kept here solely as the benchmark baseline for joinAtom's one scratch
// sub-Tuple per join.
func legacyJoinAtom(atom query.Atom, facts []*db.Fact, bindings []binding,
	bound map[string]bool) ([]binding, error) {

	keyPos := make([]int, 0, len(atom.Args))
	for i, t := range atom.Args {
		if !t.IsVar() || bound[t.Var] {
			keyPos = append(keyPos, i)
		}
	}
	factKey := func(t db.Tuple, pos []int) string {
		sub := make(db.Tuple, len(pos))
		for i, p := range pos {
			sub[i] = t[p]
		}
		return sub.Key()
	}
	index := make(map[string][]*db.Fact)
	for _, f := range facts {
		index[factKey(f.Tuple, keyPos)] = append(index[factKey(f.Tuple, keyPos)], f)
	}
	var out []binding
	for _, bd := range bindings {
		sub := make(db.Tuple, len(keyPos))
		for i, p := range keyPos {
			t := atom.Args[p]
			if t.IsVar() {
				sub[i] = bd.vals[t.Var]
			} else {
				sub[i] = t.Const
			}
		}
		for _, f := range index[sub.Key()] {
			newVals, ok := extend(atom, f, bd)
			if !ok {
				continue
			}
			support := make([]*db.Fact, len(bd.facts), len(bd.facts)+1)
			copy(support, bd.facts)
			support = append(support, f)
			out = append(out, binding{vals: newVals, facts: support})
		}
	}
	return out, nil
}

// joinAtomFixture builds a join stage representative of the TPC-H
// workload: 1000 probe bindings against a 1000-fact relation indexed on
// one bound variable, mixed int and string key columns.
func joinAtomFixture(b *testing.B) (query.Atom, []*db.Fact, []binding, map[string]bool) {
	b.Helper()
	facts := make([]*db.Fact, 1000)
	for i := range facts {
		facts[i] = &db.Fact{
			ID:       db.FactID(i + 1),
			Relation: "S",
			Tuple:    db.Tuple{db.Int(int64(i % 100)), db.String(fmt.Sprintf("name-%d", i))},
		}
	}
	bindings := make([]binding, 1000)
	for i := range bindings {
		bindings[i] = binding{
			vals:  map[string]db.Value{"y": db.Int(int64(i % 100))},
			facts: []*db.Fact{{ID: db.FactID(5000 + i)}},
		}
	}
	atom := query.Atom{Relation: "S", Args: []query.Term{query.V("y"), query.V("z")}}
	return atom, facts, bindings, map[string]bool{"y": true}
}

// BenchmarkJoinAtom compares joinAtom's scratch sub-tuple keys against the
// legacy per-fact and per-probe sub-tuples on the same join stage; run
// with -benchmem to see the allocation drop.
func BenchmarkJoinAtom(b *testing.B) {
	atom, facts, bindings, bound := joinAtomFixture(b)
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := joinAtom(atom, facts, bindings, bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := legacyJoinAtom(atom, facts, bindings, bound); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGround times grounding, the evaluation of every TPC-H query with
// lineage capture, per scale and engine. Its B/op shows what the streaming
// plan saves by never materializing an intermediate binding table.
func BenchmarkGround(b *testing.B) {
	engines := []struct {
		name string
		eval func(*db.Database, *query.UCQ, *circuit.Builder, Options) ([]Answer, error)
	}{{"streaming", Eval}, {"materialized", EvalMaterialized}}
	for _, scale := range groundScales {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			d := tpch.Generate(tpch.DefaultConfig().Scaled(scale))
			for _, eng := range engines {
				b.Run(eng.name, func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						for _, nq := range tpch.Queries() {
							if _, err := eng.eval(d, nq.Q, circuit.NewBuilder(), Options{Mode: ModeEndogenous}); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		})
	}
}

// TestLegacyJoinAtomAgrees keeps the benchmark baseline honest: both
// joinAtom implementations must produce the same binding set.
func TestLegacyJoinAtomAgrees(t *testing.T) {
	atom := query.Atom{Relation: "S", Args: []query.Term{query.V("y"), query.V("z")}}
	facts := []*db.Fact{
		{ID: 1, Relation: "S", Tuple: db.Tuple{db.Int(1), db.String("a")}},
		{ID: 2, Relation: "S", Tuple: db.Tuple{db.Int(2), db.String("b")}},
		{ID: 3, Relation: "S", Tuple: db.Tuple{db.Int(1), db.String("c")}},
	}
	bindings := []binding{
		{vals: map[string]db.Value{"y": db.Int(1)}},
		{vals: map[string]db.Value{"y": db.Int(2)}},
		{vals: map[string]db.Value{"y": db.Int(9)}},
	}
	bound := map[string]bool{"y": true}
	got, err := joinAtom(atom, facts, bindings, bound)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyJoinAtom(atom, facts, bindings, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("joinAtom produced %d bindings, legacy %d", len(got), len(want))
	}
	for i := range want {
		if got[i].facts[len(got[i].facts)-1].ID != want[i].facts[len(want[i].facts)-1].ID {
			t.Fatalf("binding %d joins fact %d, legacy %d", i,
				got[i].facts[len(got[i].facts)-1].ID, want[i].facts[len(want[i].facts)-1].ID)
		}
	}
}
