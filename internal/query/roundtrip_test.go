package query_test

import (
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/flights"
	"repro/internal/imdb"
	"repro/internal/query"
	"repro/internal/tpch"
)

// constants lists the query's constant terms in order: each atom's, then
// each filter's right-hand side.
func constants(u *query.UCQ) []db.Value {
	var out []db.Value
	for _, cq := range u.Disjuncts {
		for _, a := range cq.Atoms {
			for _, t := range a.Args {
				if !t.IsVar() {
					out = append(out, t.Const)
				}
			}
		}
		for _, f := range cq.Filters {
			if !f.Right.IsVar() {
				out = append(out, f.Right.Const)
			}
		}
	}
	return out
}

// sameConstants reports the first constant of got that differs from want's
// in kind or value.
func sameConstants(want, got []db.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d constants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind() != want[i].Kind() || got[i].Compare(want[i]) != 0 {
			return fmt.Errorf("constant %d is %v %q, want %v %q",
				i, got[i].Kind(), got[i].String(), want[i].Kind(), want[i].String())
		}
	}
	return nil
}

// TestConstantStringRoundTrip checks that a query's String parses back to
// the same constants, kind and value, for the constants Go quoting and %g
// used to garble, while plain constants keep their rendering.
func TestConstantStringRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`q() :- R(x, 'FR', 7, -5, 0.05, 2.5)`, `q() :- R(x, "FR", 7, -5, 0.05, 2.5)`},
		{`q() :- R(x, 'a\b')`, `q() :- R(x, "a\b")`},
		{"q() :- R(x, 'a\tb')", "q() :- R(x, \"a\tb\")"},
		{`q() :- R(x, 'say "hi"')`, `q() :- R(x, 'say "hi"')`},
		{`q() :- R(x, "it's")`, `q() :- R(x, "it's")`},
		{`q() :- R(x, 3.0), x > 1.`, `q() :- R(x, 3.0), x > 1.0`},
		{`q() :- R(x), x < 0.0000001`, `q() :- R(x), x < 0.0000001`},
		{`q() :- R(x, -0.0, 1000000000000000000000.0)`, `q() :- R(x, 0.0, 1000000000000000000000.0)`},
	} {
		u, err := query.Parse(tc.in)
		if err != nil {
			t.Fatalf("query.Parse(%q): %v", tc.in, err)
		}
		if got := u.String(); got != tc.want {
			t.Errorf("query.Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		back, err := query.Parse(u.String())
		if err != nil {
			t.Fatalf("%q does not parse back: %v", u.String(), err)
		}
		if err := sameConstants(constants(u), constants(back)); err != nil {
			t.Errorf("%q parses back with another constant: %v", u.String(), err)
		}
	}
}

// FuzzParseQuery feeds arbitrary text to query.Parse, seeded with the
// TPC-H, IMDB and flights queries. Parse must not panic, and the String of
// every query it accepts must parse back to a query with the same String
// and the same constants, kind and value: the server keys pooled sessions
// by that text and parses it again on a pool miss.
func FuzzParseQuery(f *testing.F) {
	for _, bq := range tpch.Queries() {
		f.Add(bq.Q.String())
	}
	for _, bq := range imdb.Queries() {
		f.Add(bq.Q.String())
	}
	f.Add(flights.Query().String())
	f.Add(`q(x) :- R(x, 'a\b', "say 'hi'", 3.0, -0.5), x > 0.0000001, x ~ 'in"c'`)
	f.Fuzz(func(t *testing.T, text string) {
		u, err := query.Parse(text)
		if err != nil {
			return
		}
		s := u.String()
		back, err := query.Parse(s)
		if err != nil {
			t.Fatalf("String %q of %q does not parse: %v", s, text, err)
		}
		if got := back.String(); got != s {
			t.Fatalf("String %q of %q parses back as %q", s, text, got)
		}
		if err := sameConstants(constants(u), constants(back)); err != nil {
			t.Fatalf("String %q of %q parses back with another constant: %v", s, text, err)
		}
	})
}
