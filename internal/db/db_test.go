package db

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{String("abc"), KindString, "abc"},
		{Float(2.5), KindFloat, "2.5"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String(%v) = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Int(5), String("a"), -1}, // numbers sort before strings
		{String("a"), Int(5), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestValueCompareExactAt2p53: an int compares with a float by exact
// value, not through float64, where float64 can no longer hold every int.
// Rounding the int made Int(2^53+1) equal Float(2^53), which equals
// Int(2^53), while the two ints differ: Equal was not transitive.
func TestValueCompareExactAt2p53(t *testing.T) {
	const p53 = 1 << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(p53), Float(p53), 0},
		{Int(p53 + 1), Float(p53), 1},
		{Float(p53), Int(p53 + 1), -1},
		{Int(p53 - 1), Float(p53), -1},
		{Int(p53 + 1), Float(p53 + 2), -1},
		{Int(p53 + 2), Float(p53 + 2), 0},
		{Int(-p53 - 1), Float(-p53), -1},
		{Int(math.MaxInt64), Float(0x1p63), -1},
		{Int(math.MinInt64), Float(-0x1p63), 0},
		{Int(math.MinInt64 + 1), Float(-0x1p63), 1},
		{Int(3), Float(3.5), -1},
		{Int(-3), Float(-3.5), 1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		{Int(0), Float(math.NaN()), 1},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
		{Float(math.Inf(1)), Int(math.MaxInt64), 1},
		{Float(p53), String(""), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v %v, %v %v) = %d, want %d", c.a.Kind(), c.a, c.b.Kind(), c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v %v, %v %v) = %d, want %d", c.b.Kind(), c.b, c.a.Kind(), c.a, got, -c.want)
		}
		if eq := c.a.Key() == c.b.Key(); eq != (c.want == 0) {
			t.Errorf("%v %v and %v %v: equal keys %v, Compare %d", c.a.Kind(), c.a, c.b.Kind(), c.b, eq, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return String(a).Compare(String(b)) == -String(b).Compare(String(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestValueKeyInjective(t *testing.T) {
	f := func(a, b string) bool {
		return (a == b) == (String(a).Key() == String(b).Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b int64) bool {
		return (a == b) == (Int(a).Key() == Int(b).Key())
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestValueTextMatchesFmt pins Value.String, Value.Key, Tuple.String and
// Tuple.Key, which format with strconv, to the fmt verbs they replaced
// (%d for ints, %g for floats; a key keys a float that equals an int as
// that int, with %d, and escapes a string's 0x00 bytes as 0x00 0xFF): on
// int64 extremes, floats at %g's exponent switch, past 2^53 and at ±2^63,
// integral floats, NaN and the infinities, and random bit patterns.
func TestValueTextMatchesFmt(t *testing.T) {
	vals := []Value{
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64), Int(1<<53 + 1),
		Float(1e21), Float(1e20), Float(1e-7), Float(1e-5), Float(1<<53 + 1), Float(float64(1<<53) * 3),
		Float(3), Float(-2.5), Float(0.1), Float(1.0 / 3), Float(math.MaxFloat64),
		Float(math.SmallestNonzeroFloat64), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(0x1p63), Float(-0x1p63), Float(math.Nextafter(0x1p63, 0)), Float(-3),
		String(""), String("a, b\x00c"),
	}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		vals = append(vals, Int(int64(rng.Uint64())), Float(math.Float64frombits(rng.Uint64())))
	}
	text := func(v Value) string {
		switch v.Kind() {
		case KindInt:
			return fmt.Sprintf("%d", v.AsInt())
		case KindFloat:
			return fmt.Sprintf("%g", v.AsFloat())
		}
		return v.AsString()
	}
	key := func(v Value) string {
		if f := v.AsFloat(); v.Kind() == KindFloat && f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
			return fmt.Sprintf("i%d", int64(f))
		}
		return map[Kind]string{KindInt: "i", KindFloat: "f", KindString: "s"}[v.Kind()] +
			strings.ReplaceAll(text(v), "\x00", "\x00\xff")
	}
	for _, v := range vals {
		if got, want := v.String(), text(v); got != want {
			t.Fatalf("%v value String = %q, fmt gives %q", v.Kind(), got, want)
		}
		if got, want := v.Key(), key(v); got != want {
			t.Fatalf("%v value Key = %q, want %q", v.Kind(), got, want)
		}
	}
	for i := 0; i+3 <= len(vals); i += 3 {
		tup := Tuple(vals[i : i+3])
		texts, keys := make([]string, len(tup)), make([]string, len(tup))
		for j, v := range tup {
			texts[j], keys[j] = text(v), key(v)
		}
		if got, want := tup.String(), "("+strings.Join(texts, ", ")+")"; got != want {
			t.Fatalf("Tuple.String = %q, want %q", got, want)
		}
		if got, want := tup.Key(), strings.Join(keys, "\x00"); got != want {
			t.Fatalf("Tuple.Key = %q, want %q", got, want)
		}
	}
	if got := (Tuple{}).String(); got != "()" {
		t.Errorf("empty Tuple.String = %q, want ()", got)
	}
}

// TestTupleKeyDistinguishesBoundaries: two tuples share a Tuple.Key exactly
// when they are Equal, wherever the value boundaries fall, over mixed kinds
// and strings holding 0x00 and 0xFF. Without escaping 0x00 inside strings,
// ("a\x00sb", "c") and ("a", "b\x00sc") shared a key, and so did
// ("x\x00i5") and ("x", 5). An int and the float that equals it share one
// (5 and 5.0, 2^53 and float 2^53), and ints past 2^53 stay apart from the
// float nearest them.
func TestTupleKeyDistinguishesBoundaries(t *testing.T) {
	tuples := []Tuple{
		{},
		{String("")},
		{String(""), String("")},
		{String("ab"), String("c")},
		{String("a"), String("bc")},
		{String("a\x00sb"), String("c")},
		{String("a"), String("b\x00sc")},
		{String("a\x00sb\x00sc")},
		{String("x\x00i5")},
		{String("x"), Int(5)},
		{String("x"), Float(5)},
		{String("x\x00f5")},
		{String("a\x00")},
		{String("a"), String("")},
		{String("a\x00\xff")},
		{String("a\xff")},
		{String("\x00")},
		{String("\xff")},
		{String("\x00\xff")},
		{String("\xff\x00")},
		{String("\xfe\xff\x00s")},
		{Int(1 << 53)},
		{Int(1<<53 + 1)},
		{Float(1 << 53)},
		{Float(math.Copysign(0, -1))},
		{Float(0)},
		{Int(0)},
		{Int(0), String("\x00")},
		{Int(0), String("\x00"), Float(0.5)},
		{Float(0.5), Int(0)},
		{Float(5), String("x")},
		{Int(5), String("x")},
		{Float(1<<53 + 2)},
		{Int(1<<53 + 2)},
		{Float(0x1p63)},
		{Int(math.MaxInt64)},
		{Int(math.MinInt64)},
		{Float(-0x1p63)},
	}
	for i, a := range tuples {
		for j, b := range tuples {
			if same, eq := a.Equal(b), a.Key() == b.Key(); same != eq {
				t.Errorf("tuples %d %q and %d %q: Equal %v, equal keys %v (%q, %q)",
					i, a, j, b, same, eq, a.Key(), b.Key())
			}
		}
	}
}

// sameValues reports whether two tuples have the same length and, position
// by position, the same kind and value (every NaN counts as one value):
// stricter than Equal, which counts an int and an equal float as one.
func sameValues(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind() != y.Kind() {
			return false
		}
		switch x.Kind() {
		case KindInt:
			if x.AsInt() != y.AsInt() {
				return false
			}
		case KindFloat:
			if x.AsFloat() != y.AsFloat() && !(math.IsNaN(x.AsFloat()) && math.IsNaN(y.AsFloat())) {
				return false
			}
		default:
			if x.AsString() != y.AsString() {
				return false
			}
		}
	}
	return true
}

func TestInsertAndLookup(t *testing.T) {
	d := New()
	d.CreateRelation("R", "x", "y")
	f1 := d.MustInsert("R", true, Int(1), Int(2))
	f2 := d.MustInsert("R", false, Int(3), Int(4))
	if f1.ID == f2.ID {
		t.Fatalf("fact IDs not unique")
	}
	if got := d.Fact(f1.ID); got != f1 {
		t.Errorf("Fact(%d) = %v, want %v", f1.ID, got, f1)
	}
	if d.NumFacts() != 2 {
		t.Errorf("NumFacts = %d, want 2", d.NumFacts())
	}
	if n := len(d.EndogenousFacts()); n != 1 {
		t.Errorf("EndogenousFacts len = %d, want 1", n)
	}
	if n := len(d.ExogenousFacts()); n != 1 {
		t.Errorf("ExogenousFacts len = %d, want 1", n)
	}
	if d.NumEndogenous() != 1 {
		t.Errorf("NumEndogenous = %d, want 1", d.NumEndogenous())
	}
}

func TestInsertErrors(t *testing.T) {
	d := New()
	d.CreateRelation("R", "x")
	if _, err := d.Insert("S", true, Int(1)); err == nil {
		t.Error("insert into unknown relation succeeded")
	}
	if _, err := d.Insert("R", true, Int(1), Int(2)); err == nil {
		t.Error("arity-mismatched insert succeeded")
	}
}

func TestCreateRelationDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate CreateRelation did not panic")
		}
	}()
	d := New()
	d.CreateRelation("R", "x")
	d.CreateRelation("R", "x")
}

func TestRestrictPreservesIDs(t *testing.T) {
	d := New()
	d.CreateRelation("R", "x")
	f1 := d.MustInsert("R", true, Int(1))
	f2 := d.MustInsert("R", true, Int(2))
	f3 := d.MustInsert("R", false, Int(3))

	sub := d.WithEndogenousSubset(map[FactID]bool{f1.ID: true})
	if sub.Fact(f1.ID) == nil {
		t.Error("selected endogenous fact missing from restriction")
	}
	if sub.Fact(f2.ID) != nil {
		t.Error("unselected endogenous fact present in restriction")
	}
	if sub.Fact(f3.ID) == nil {
		t.Error("exogenous fact missing from restriction")
	}
	if got := len(sub.Relation("R").Facts()); got != 2 {
		t.Errorf("restricted relation has %d facts, want 2", got)
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := Schema{Name: "R", Columns: []string{"a", "b", "c"}}
	if s.ColumnIndex("b") != 1 {
		t.Errorf("ColumnIndex(b) = %d, want 1", s.ColumnIndex("b"))
	}
	if s.ColumnIndex("z") != -1 {
		t.Errorf("ColumnIndex(z) = %d, want -1", s.ColumnIndex("z"))
	}
	if s.Arity() != 3 {
		t.Errorf("Arity = %d, want 3", s.Arity())
	}
}

func TestRelationNamesOrder(t *testing.T) {
	d := New()
	d.CreateRelation("B", "x")
	d.CreateRelation("A", "x")
	names := d.RelationNames()
	if len(names) != 2 || names[0] != "B" || names[1] != "A" {
		t.Errorf("RelationNames = %v, want [B A]", names)
	}
}

func TestDeleteRemovesFactAndKeepsIDsMonotone(t *testing.T) {
	d := New()
	d.CreateRelation("R", "a")
	f1 := d.MustInsert("R", true, Int(1))
	f2 := d.MustInsert("R", true, Int(2))
	if err := d.Delete(f1.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if d.Fact(f1.ID) != nil {
		t.Errorf("Fact(%d) survived Delete", f1.ID)
	}
	if d.NumFacts() != 1 {
		t.Errorf("NumFacts = %d, want 1", d.NumFacts())
	}
	rel := d.Relation("R")
	if len(rel.Facts()) != 1 || rel.Facts()[0].ID != f2.ID {
		t.Errorf("relation facts = %v, want just #%d", rel.Facts(), f2.ID)
	}
	f3 := d.MustInsert("R", true, Int(3))
	if f3.ID <= f2.ID {
		t.Errorf("ID after delete = %d, want > %d (IDs must never be reused)", f3.ID, f2.ID)
	}
	if err := d.Delete(f1.ID); err == nil {
		t.Error("Delete of a missing ID succeeded, want error")
	}
}

func TestEpochsBumpOnEveryMutation(t *testing.T) {
	d := New()
	d.CreateRelation("R", "a")
	d.CreateRelation("S", "a")
	if d.Epoch() != 0 {
		t.Fatalf("fresh Epoch = %d, want 0", d.Epoch())
	}
	f := d.MustInsert("R", true, Int(1))
	if d.Epoch() != 1 {
		t.Errorf("after insert: Epoch = %d, want 1", d.Epoch())
	}
	d.MustInsert("S", false, Int(2))
	if err := d.Delete(f.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if d.Epoch() != 3 {
		t.Errorf("after delete: Epoch = %d, want 3", d.Epoch())
	}
}

// TestChangesSince pins the mutation feed across its trimming: from every
// epoch it still reaches, ChangesSince returns exactly the mutations applied
// since, oldest first; it always reaches feedCap mutations back; and once it
// no longer reaches an epoch it says so, for that epoch and every earlier
// one. A reopened persistent database feeds its later mutations the same way.
func TestChangesSince(t *testing.T) {
	d := New()
	d.CreateRelation("R", "a")
	var log []Change // every mutation, log[e] moved the epoch from e to e+1
	check := func(step int) {
		t.Helper()
		now := d.Epoch()
		if _, ok := d.ChangesSince(now + 1); ok {
			t.Fatalf("step %d: ChangesSince(%d) reaches an epoch ahead of the database", step, now+1)
		}
		reached := true
		for e := int(now); e >= 0; e-- {
			got, ok := d.ChangesSince(uint64(e))
			if !ok {
				if int(now)-e <= feedCap {
					t.Fatalf("step %d: feed stops short of epoch %d, %d mutations back", step, e, int(now)-e)
				}
				reached = false
				continue
			}
			if !reached {
				t.Fatalf("step %d: feed reaches epoch %d but not a later one", step, e)
			}
			want := log[e:]
			if len(got) != len(want) {
				t.Fatalf("step %d: ChangesSince(%d) has %d entries, want %d", step, e, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: ChangesSince(%d)[%d] = %+v, want %+v", step, e, i, got[i], want[i])
				}
			}
		}
		if reached && now > 2*feedCap {
			t.Fatalf("step %d: feed still reaches epoch 0 after %d mutations", step, now)
		}
	}
	check(0)
	var live []*Fact
	for step := 1; step <= 3*feedCap+7; step++ {
		if step%3 == 0 {
			f := live[0]
			live = live[1:]
			if err := d.Delete(f.ID); err != nil {
				t.Fatal(err)
			}
			log = append(log, Change{Fact: f, Deleted: true})
		} else {
			f := d.MustInsert("R", step%2 == 0, Int(int64(step)))
			live = append(live, f)
			log = append(log, Change{Fact: f})
		}
		check(step)
	}

	dir := t.TempDir()
	p := New()
	if err := p.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	p.CreateRelation("R", "a")
	p.MustInsert("R", true, Int(1))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	at := p.Epoch()
	f := p.MustInsert("R", false, Int(2))
	if got, ok := p.ChangesSince(at); !ok || len(got) != 1 || got[0] != (Change{Fact: f}) {
		t.Fatalf("reopened database: ChangesSince(%d) = %v, %v; want the one insert", at, got, ok)
	}
}
