package engine

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
)

// mixedPool holds the values FuzzMixedKindQueries builds facts and
// constants from: ints and the floats Equal to them (0 and -0, 3 and 3.0,
// 2^53), a float Equal to no int (3.5, 2^63), the int past 2^53 that
// rounds to float 2^53, and strings, one of them "3", with 0x00 and 0xFF.
var mixedPool = []db.Value{
	db.Int(0), db.Float(math.Copysign(0, -1)), db.Int(3), db.Float(3), db.Float(3.5),
	db.Int(1 << 53), db.Int(1<<53 + 1), db.Float(1 << 53), db.Float(0x1p63),
	db.String("3"), db.String("a\x00"), db.String("\xff"), db.String("\x00\xff"),
}

// mixedPairs are the query forms that must agree, each a rewriting of the
// other through R ⋈ S = σ_{x=y}(R × S): a join and its filter form (also
// as a self-join, where one support set witnesses Equal heads of two
// kinds), an atom constant and its filter form (c is the pool value the
// input picks) and a repeated variable and its filter form.
func mixedPairs(c db.Value) [][2]*query.UCQ {
	x, y := query.V("x"), query.V("y")
	eq := func(r query.Term) []query.Filter { return []query.Filter{{Left: "x", Op: query.OpEq, Right: r}} }
	ucq := func(head []string, filters []query.Filter, atoms ...query.Atom) *query.UCQ {
		return &query.UCQ{Disjuncts: []query.CQ{{Head: head, Atoms: atoms, Filters: filters}}}
	}
	r := func(args ...query.Term) query.Atom { return query.Atom{Relation: "R", Args: args} }
	s := func(args ...query.Term) query.Atom { return query.Atom{Relation: "S", Args: args} }
	r2 := func(args ...query.Term) query.Atom { return query.Atom{Relation: "R2", Args: args} }
	return [][2]*query.UCQ{
		{ucq([]string{"x"}, nil, r(x), s(x)), ucq([]string{"x"}, eq(y), r(x), s(y))},
		{ucq(nil, nil, r(x), s(x)), ucq(nil, eq(y), r(x), s(y))},
		{ucq([]string{"x"}, nil, r(x), r(x)), ucq([]string{"x"}, eq(y), r(x), r(y))},
		{ucq(nil, nil, s(query.C(c))), ucq(nil, eq(query.C(c)), s(x))},
		{ucq([]string{"x"}, nil, r2(x, x)), ucq([]string{"x"}, eq(y), r2(x, y))},
	}
}

// FuzzMixedKindQueries: over relations R(a), S(b) and R2(a, b) filled from
// mixedPool, each query form of mixedPairs has the same answer keys and
// lineages (as Boolean functions) as its filter form, under Eval and under
// EvalMaterialized; and an Incremental fed the same facts by Insert, with
// some removed by Delete, shows after every step what a cold Eval does,
// tuples kind by kind. The input is a constant's pool index, then up to
// 12 operations of one control byte each (modulo 4: insert into R, S or
// R2, or delete a live fact; bit 2 set: exogenous) followed by its pool or
// fact indexes.
func FuzzMixedKindQueries(f *testing.F) {
	for _, seed := range [][]byte{
		{2, 0, 2, 1, 3},                // R = {3}, S = {3.0}; c = 3
		{3, 1, 3, 0, 2},                // S = {3.0}, R = {3}; c = 3.0
		{2, 2, 2, 3, 2, 3, 2},          // R2 = {(3, 3.0), (3.0, 3)}
		{2, 1, 3, 1, 2, 3, 0},          // S: 3.0, then 3, then delete 3.0
		{2, 0, 3, 1, 3, 0, 2, 3, 2},    // R = S = {3.0}, then R: 3 in and out
		{5, 0, 6, 1, 7, 0, 5, 2, 6, 7}, // 2^53+1, float 2^53 and 2^53
		{0, 0, 1, 1, 0, 2, 0, 1, 3, 1}, // -0 and 0
		{9, 1, 9, 0, 2, 1, 10, 1, 12},  // "3", 3 and strings with 0x00
		{8, 0, 8, 1, 8, 6, 3, 0},       // 2^63 as a float
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := mixedPool[int(data[0])%len(mixedPool)]
		data = data[1:]
		pairs := mixedPairs(c)

		d := db.New()
		d.CreateRelation("R", "a")
		d.CreateRelation("S", "b")
		d.CreateRelation("R2", "a", "b")
		opts := Options{Mode: ModeEndogenous}
		var incs []*Incremental
		for _, p := range pairs {
			for _, q := range p {
				inc, err := NewIncremental(context.Background(), d, q, circuit.NewBuilder(), opts)
				if err != nil {
					t.Fatal(err)
				}
				incs = append(incs, inc)
			}
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var live []*db.Fact
		for op := 0; op < 12 && len(data) > 0; op++ {
			ctl := next()
			if ctl%4 == 3 {
				if len(live) == 0 {
					continue
				}
				i := next() % len(live)
				id := live[i].ID
				live = append(live[:i], live[i+1:]...)
				if err := d.Delete(id); err != nil {
					t.Fatal(err)
				}
				for _, inc := range incs {
					inc.Delete(id)
				}
			} else {
				rel, arity := [...]string{"R", "S", "R2"}[ctl%4], 1
				if rel == "R2" {
					arity = 2
				}
				vals := make([]db.Value, arity)
				for i := range vals {
					vals[i] = mixedPool[next()%len(mixedPool)]
				}
				fact := d.MustInsert(rel, ctl&4 == 0, vals...)
				live = append(live, fact)
				for _, inc := range incs {
					if _, err := inc.Insert(fact); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			for _, p := range pairs {
				for _, q := range p {
					checkAgainstEval(t, incs[i], d, q, opts)
					i++
				}
			}
		}

		for _, eng := range []struct {
			name string
			eval func(*db.Database, *query.UCQ, *circuit.Builder, Options) ([]Answer, error)
		}{{"Eval", Eval}, {"EvalMaterialized", EvalMaterialized}} {
			for _, p := range pairs {
				got, err := eng.eval(d, p[0], circuit.NewBuilder(), opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.eval(d, p[1], circuit.NewBuilder(), opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameAnswers(t, eng.name+" "+p[0].String()+" vs "+p[1].String(), got, want, false)
			}
		}
	})
}
