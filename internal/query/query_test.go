package query

import (
	"strings"
	"testing"

	"repro/internal/db"
)

func TestParseBasic(t *testing.T) {
	u, err := Parse(`q(x, y) :- R(x, z), S(z, y, 'FR'), y > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 1 {
		t.Fatalf("disjuncts = %d, want 1", len(u.Disjuncts))
	}
	cq := u.Disjuncts[0]
	if len(cq.Head) != 2 || cq.Head[0] != "x" || cq.Head[1] != "y" {
		t.Errorf("head = %v", cq.Head)
	}
	if len(cq.Atoms) != 2 {
		t.Fatalf("atoms = %d, want 2", len(cq.Atoms))
	}
	if cq.Atoms[1].Relation != "S" || len(cq.Atoms[1].Args) != 3 {
		t.Errorf("second atom = %v", cq.Atoms[1])
	}
	if c := cq.Atoms[1].Args[2]; c.IsVar() || c.Const.AsString() != "FR" {
		t.Errorf("constant arg = %v", c)
	}
	if len(cq.Filters) != 1 || cq.Filters[0].Op != OpGt {
		t.Errorf("filters = %v", cq.Filters)
	}
}

func TestParseUnion(t *testing.T) {
	u, err := Parse(`
		q(x) :- R(x)
		q(x) :- S(x)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d, want 2", len(u.Disjuncts))
	}
	if u.Arity() != 1 || u.IsBoolean() {
		t.Errorf("arity = %d, boolean = %v", u.Arity(), u.IsBoolean())
	}
}

func TestParseBoolean(t *testing.T) {
	u, err := Parse(`q() :- R(x, 7)`)
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsBoolean() {
		t.Error("query should be Boolean")
	}
	if got := u.Disjuncts[0].Atoms[0].Args[1]; got.IsVar() || got.Const.AsInt() != 7 {
		t.Errorf("integer constant = %v", got)
	}
}

func TestParseLiterals(t *testing.T) {
	u := MustParse(`q() :- R(x, -5, 2.5, "dq", 'sq')`)
	args := u.Disjuncts[0].Atoms[0].Args
	if args[1].Const.AsInt() != -5 {
		t.Errorf("negative int = %v", args[1])
	}
	if args[2].Const.AsFloat() != 2.5 {
		t.Errorf("float = %v", args[2])
	}
	if args[3].Const.AsString() != "dq" || args[4].Const.AsString() != "sq" {
		t.Errorf("strings = %v %v", args[3], args[4])
	}
}

func TestParseComments(t *testing.T) {
	u, err := Parse(`
		% comment
		# another
		q() :- R(x)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 1 {
		t.Errorf("disjuncts = %d, want 1", len(u.Disjuncts))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                   // no rules
		`q(x)`,                               // missing body
		`q(x) :- `,                           // empty body
		`q(x) :- R(x`,                        // unterminated atom
		`q(x) :- R('oops`,                    // unterminated string
		`q(x) :- x ?? 3`,                     // bad operator
		`q(x) :- S(y)`,                       // unsafe head
		`q(x) :- R(x), y > 2`,                // unsafe filter
		"q(x) :- R(x)\nq(x,y) :- R(x), R(y)", // arity mismatch across disjuncts
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestFilterEval(t *testing.T) {
	bind := map[string]db.Value{"x": db.Int(5), "y": db.Int(7), "s": db.String("hello")}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{"x", OpEq, CInt(5)}, true},
		{Filter{"x", OpNe, CInt(5)}, false},
		{Filter{"x", OpLt, V("y")}, true},
		{Filter{"y", OpLe, V("x")}, false},
		{Filter{"y", OpGt, CInt(6)}, true},
		{Filter{"x", OpGe, CInt(6)}, false},
		{Filter{"s", OpContains, CStr("ell")}, true},
		{Filter{"s", OpPrefix, CStr("he")}, true},
		{Filter{"s", OpPrefix, CStr("lo")}, false},
	}
	for _, c := range cases {
		got, err := c.f.Eval(bind)
		if err != nil {
			t.Fatalf("%v: %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("%v = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := (Filter{"z", OpEq, CInt(1)}).Eval(bind); err == nil {
		t.Error("unbound filter variable accepted")
	}
}

func TestIsHierarchical(t *testing.T) {
	cases := []struct {
		text string
		want bool
	}{
		// R(x), S(x,y): at(x) = {R,S} ⊇ at(y) = {S} → hierarchical.
		{`q() :- R(x), S(x, y)`, true},
		// R(x), S(x,y), T(y): at(x) = {R,S}, at(y) = {S,T} overlap without
		// containment → not hierarchical.
		{`q() :- R(x), S(x, y), T(y)`, false},
		// Disjoint variables are fine.
		{`q() :- R(x), T(y)`, true},
		// Head variables are ignored (only existential variables matter):
		// the classic non-hierarchical query becomes hierarchical once its
		// join variables are outputs.
		{`q(x) :- R(x), S(x, y), T(y)`, true},
		{`q(x, y) :- R(x), S(x, y), T(y)`, true},
		// Three-way overlap among existential variables stays rejected.
		{`q() :- R(x, y), S(y, z), T(z, x)`, false},
	}
	for _, c := range cases {
		u := MustParse(c.text)
		if got := u.Disjuncts[0].IsHierarchical(); got != c.want {
			t.Errorf("IsHierarchical(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestCountingHelpers(t *testing.T) {
	u := MustParse(`
		q(x) :- R(x, 'a'), S(x, y), y > 2
		q(x) :- T(x, 5)
	`)
	if got := u.NumAtoms(); got != 3 {
		t.Errorf("NumAtoms = %d, want 3", got)
	}
	// Filters: y>2 plus constants 'a' and 5.
	if got := u.NumFilters(); got != 3 {
		t.Errorf("NumFilters = %d, want 3", got)
	}
}

func TestStringRoundtrip(t *testing.T) {
	u := MustParse(`q(x) :- R(x, 'a'), x < 5`)
	s := u.String()
	for _, want := range []string{"R(x,", `"a"`, "x < 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestAtomVars(t *testing.T) {
	a := Atom{Relation: "R", Args: []Term{V("x"), CInt(1), V("y"), V("x")}}
	vars := a.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v, want [x y]", vars)
	}
}
