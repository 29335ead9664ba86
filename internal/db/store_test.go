package db

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// populate fills a database with a small two-relation instance.
func populate(t *testing.T, d *Database) []*Fact {
	t.Helper()
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "b", "c")
	var facts []*Fact
	for i := 0; i < 20; i++ {
		facts = append(facts, d.MustInsert("R", true, Int(int64(i%5)), String(string(rune('a'+i%7)))))
	}
	for i := 0; i < 10; i++ {
		facts = append(facts, d.MustInsert("S", i%2 == 0, String(string(rune('a'+i%7))), Int(int64(i))))
	}
	return facts
}

func ids(fs []*Fact) []int {
	out := make([]int, len(fs))
	for i, f := range fs {
		out[i] = int(f.ID)
	}
	sort.Ints(out)
	return out
}

// persisted returns an empty database persisting to a fresh directory.
func persisted(t *testing.T) *Database {
	t.Helper()
	d := New()
	if err := d.Persist(PersistConfig{Dir: filepath.Join(t.TempDir(), "ds")}); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// databasesUnderTest returns an in-memory and a persistent database: the
// fact store must behave the same whether or not it logs its mutations.
func databasesUnderTest(t *testing.T) map[string]*Database {
	t.Helper()
	return map[string]*Database{"memory": New(), "persistent": persisted(t)}
}

// TestStoreScanAndLookupAgree drives Scan and Lookup and checks they see
// the same fact sets as the materialized Facts slice.
func TestStoreScanAndLookupAgree(t *testing.T) {
	for name, d := range databasesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			populate(t, d)
			rel := d.Relation("R")
			if rel.Len() != 20 {
				t.Fatalf("Len = %d, want 20", rel.Len())
			}
			if got := len(rel.Facts()); got != 20 {
				t.Fatalf("len(Facts()) = %d, want 20", got)
			}
			// Lookup on position 0 must partition the scan.
			seen := 0
			for v := int64(0); v < 5; v++ {
				var got []*Fact
				for f := range rel.Lookup([]int{0}, []Value{Int(v)}) {
					if f.Tuple[0].AsInt() != v {
						t.Fatalf("Lookup(0=%d) yielded %v", v, f)
					}
					got = append(got, f)
				}
				seen += len(got)
			}
			if seen != 20 {
				t.Errorf("lookups covered %d facts, want 20", seen)
			}
			// Composite two-position lookup.
			want := 0
			for f := range rel.Scan() {
				if f.Tuple[0].AsInt() == 2 && f.Tuple[1].AsString() == "c" {
					want++
				}
			}
			got := 0
			for range rel.Lookup([]int{0, 1}, []Value{Int(2), String("c")}) {
				got++
			}
			if got != want {
				t.Errorf("composite lookup = %d facts, want %d", got, want)
			}
			// Scan and lookup of an empty relation must yield nothing, not
			// panic.
			d.CreateRelation("Empty", "x")
			for range d.Relation("Empty").Scan() {
				t.Fatal("scan of empty relation yielded a fact")
			}
			for range d.Relation("Empty").Lookup([]int{0}, []Value{Int(1)}) {
				t.Fatal("lookup in empty relation yielded a fact")
			}
		})
	}
}

// TestStoreDeleteMaintainsIndexes deletes facts after indexes were built and
// checks lookups never serve dead facts.
func TestStoreDeleteMaintainsIndexes(t *testing.T) {
	for name, d := range databasesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			facts := populate(t, d)
			rel := d.Relation("R")
			// Build the index first.
			for range rel.Lookup([]int{0}, []Value{Int(1)}) {
			}
			for _, f := range facts {
				if f.Relation == "R" && f.Tuple[0].AsInt() == 1 {
					if err := d.Delete(f.ID); err != nil {
						t.Fatalf("Delete: %v", err)
					}
				}
			}
			for f := range rel.Lookup([]int{0}, []Value{Int(1)}) {
				t.Fatalf("lookup yielded deleted fact %v", f)
			}
			if rel.Len() != 16 {
				t.Errorf("Len after deletes = %d, want 16", rel.Len())
			}
		})
	}
}

// wide fills relation W(a, b, c, d) — arity 4, so 15 non-empty position
// patterns, more than DefaultIndexBudget — and returns its patterns.
func wide(d *Database) [][]int {
	d.CreateRelation("W", "a", "b", "c", "d")
	for i := 0; i < 40; i++ {
		d.MustInsert("W", i%3 == 0, Int(int64(i%2)), Int(int64(i%3)), String(string(rune('a'+i%4))), Int(int64(i%5)))
	}
	var pats [][]int
	for mask := 1; mask < 16; mask++ {
		var pos []int
		for p := 0; p < 4; p++ {
			if mask&(1<<p) != 0 {
				pos = append(pos, p)
			}
		}
		pats = append(pats, pos)
	}
	return pats
}

// at returns t's values at pos.
func at(t Tuple, pos []int) Tuple {
	out := make(Tuple, len(pos))
	for i, p := range pos {
		out[i] = t[p]
	}
	return out
}

// filtered is the reference answer to a lookup: the IDs of rel's facts
// whose values at pos are Equal to vals, found by scanning.
func filtered(rel *Relation, pos []int, vals Tuple) []FactID {
	var out []FactID
	for f := range rel.Scan() {
		if at(f.Tuple, pos).Equal(vals) {
			out = append(out, f.ID)
		}
	}
	return out
}

func lookupIDs(rel *Relation, pos []int, vals Tuple) []FactID {
	var out []FactID
	for f := range rel.Lookup(pos, vals) {
		out = append(out, f.ID)
	}
	return out
}

// TestIndexBudgetFallback exhausts the per-relation index budget and checks
// lookups still return correct results via filtered scans.
func TestIndexBudgetFallback(t *testing.T) {
	for name, d := range databasesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			pats := wide(d)
			rel := d.Relation("W")
			f := rel.Facts()[7]
			for i, pos := range pats {
				vals := at(f.Tuple, pos)
				if got, want := lookupIDs(rel, pos, vals), filtered(rel, pos, vals); !slices.Equal(got, want) {
					t.Fatalf("lookup %d on %v = %v, want %v", i, pos, got, want)
				}
			}
			if n := len(rel.loadIndexes()); n != DefaultIndexBudget {
				t.Errorf("index count = %d, want %d (budget)", n, DefaultIndexBudget)
			}
		})
	}
}

// TestPastBudgetLookupAllocations: once the index budget is spent, a lookup
// of an unindexed pattern scans without taking the relation's lock, and
// draining it allocates nothing.
func TestPastBudgetLookupAllocations(t *testing.T) {
	d := New()
	pats := wide(d)
	rel := d.Relation("W")
	for _, pos := range pats[:DefaultIndexBudget] {
		for range rel.Lookup(pos, make([]Value, len(pos))) {
		}
	}
	pos := []int{0, 1, 2, 3}
	vals := at(rel.Facts()[7].Tuple, pos)
	if rel.index(pos) != nil {
		t.Fatalf("pattern %v indexed past the budget", pos)
	}
	drain := func() (n int) {
		for range rel.Lookup(pos, vals) {
			n++
		}
		return n
	}
	done := make(chan int)
	rel.mu.Lock()
	go func() { done <- drain() }()
	select {
	case n := <-done:
		if want := len(filtered(rel, pos, vals)); n != want {
			t.Errorf("lookup yielded %d facts, want %d", n, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lookup past the budget waits for the relation's lock")
	}
	rel.mu.Unlock()
	if got := testing.AllocsPerRun(100, func() { drain() }); got != 0 {
		t.Errorf("draining a lookup past the budget allocates %.0f times, want 0", got)
	}
}

// TestLookupMatchesEqualValues: a lookup yields the facts whose values are
// Equal to the sought ones, an int matching the float of the same number,
// both from an index and from the filtered scan past the index budget.
func TestLookupMatchesEqualValues(t *testing.T) {
	vals := []Value{Int(3), Float(3), Float(3.5), String("3"), Int(1 << 53), Int(1<<53 + 1), Float(1 << 53)}
	for _, fallback := range []bool{false, true} {
		d := New()
		d.CreateRelation("N", "a", "b", "c", "d")
		for _, a := range vals {
			for _, b := range vals {
				d.MustInsert("N", true, a, b, Int(0), Int(0))
			}
		}
		rel := d.Relation("N")
		if fallback {
			// Spend the budget on patterns holding position 2 or 3.
			for _, pos := range [][]int{{2}, {3}, {2, 3}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {0, 2, 3}} {
				for range rel.Lookup(pos, make([]Value, len(pos))) {
				}
			}
			if rel.index([]int{0}) != nil {
				t.Fatal("index budget not spent")
			}
		}
		for _, pos := range [][]int{{0}, {1}, {0, 1}} {
			for _, a := range vals {
				for _, b := range vals {
					want := Tuple{a, b}[:len(pos)]
					if got, ref := lookupIDs(rel, pos, want), filtered(rel, pos, want); !slices.Equal(got, ref) || len(got) == 0 {
						t.Fatalf("fallback %v: lookup of %v on %v = %v, want %v", fallback, want, pos, got, ref)
					}
				}
			}
		}
	}
}

// TestIndexPositionsPast255: indexes on positions 1 and 257 of a
// 258-column relation are distinct. With one byte per position in the
// index signature they shared one index, so a lookup of 'a' at position
// 257 returned the fact that has 'a' at position 1.
func TestIndexPositionsPast255(t *testing.T) {
	d := New()
	cols := make([]string, 258)
	for i := range cols {
		cols[i] = "c" + strconv.Itoa(i)
	}
	d.CreateRelation("R", cols...)
	vals := make(Tuple, len(cols))
	for i := range vals {
		vals[i] = String("z")
	}
	vals[1] = String("a")
	d.MustInsert("R", true, vals...)
	rel := d.Relation("R")
	a := Tuple{String("a")}
	for _, c := range []struct {
		pos  []int
		vals Tuple
	}{
		{[]int{1}, a},
		{[]int{257}, a},
		{[]int{257}, at(vals, []int{257})},
		{[]int{1, 257}, at(vals, []int{1, 257})},
	} {
		if got, want := lookupIDs(rel, c.pos, c.vals), filtered(rel, c.pos, c.vals); !slices.Equal(got, want) {
			t.Errorf("lookup of %v on %v = %v, want %v", c.vals, c.pos, got, want)
		}
	}
}

// TestConcurrentLookupsBuildIndexesSafely runs many lookups on fresh
// patterns at once, as concurrent groundings of one database do, past the
// index budget, and checks every answer against a serial lookup on a
// twin database (run under -race in CI).
func TestConcurrentLookupsBuildIndexesSafely(t *testing.T) {
	d, twin := New(), New()
	pats := wide(d)
	wide(twin)
	rel, ref := d.Relation("W"), twin.Relation("W")
	probes := rel.Facts()[:6]
	want := make(map[string][]FactID)
	for _, pos := range pats {
		for _, f := range probes {
			vals := at(f.Tuple, pos)
			want[fmt.Sprint(pos, vals)] = lookupIDs(ref, pos, vals)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(pats))
	for g := range pats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the patterns from its own offset, so
			// several race to build every index.
			for i := range pats {
				pos := pats[(g+i)%len(pats)]
				for _, f := range probes {
					vals := at(f.Tuple, pos)
					if got := lookupIDs(rel, pos, vals); !slices.Equal(got, want[fmt.Sprint(pos, vals)]) {
						errs <- fmt.Sprintf("lookup on %v = %v, want %v", pos, got, want[fmt.Sprint(pos, vals)])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := len(rel.loadIndexes()); n != DefaultIndexBudget {
		t.Errorf("index count = %d, want %d (budget)", n, DefaultIndexBudget)
	}
}

// TestPersistenceRoundTrip writes through a persistent database, reopens
// the directory, and checks facts, IDs, endogenous flags, deletes, and
// continued appends all survive.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	facts := populate(t, d)
	victim := facts[3]
	if err := d.Delete(victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, _, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if re.NumFacts() != d.NumFacts() {
		t.Fatalf("reloaded NumFacts = %d, want %d", re.NumFacts(), d.NumFacts())
	}
	if re.Fact(victim.ID) != nil {
		t.Error("deleted fact survived the reload")
	}
	a, b := ids(d.EndogenousFacts()), ids(re.EndogenousFacts())
	if len(a) != len(b) {
		t.Fatalf("endogenous counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("endogenous IDs differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// New inserts must mint IDs above everything restored, and persist.
	nf, err := re.Insert("R", true, Int(99), String("z"))
	if err != nil {
		t.Fatal(err)
	}
	if nf.ID < FactID(len(facts)) {
		t.Errorf("post-reload ID %d collides with restored IDs", nf.ID)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, _, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if re2.Fact(nf.ID) == nil {
		t.Error("post-reload insert did not persist")
	}
	re2.Close()
}

// TestPersistInPlace makes a populated in-memory database persistent: the
// snapshot it writes must reload to the same facts, IDs, flags and next
// ID, and later mutations must reach the log.
func TestPersistInPlace(t *testing.T) {
	d := New()
	facts := populate(t, d)
	for _, f := range facts[len(facts)-3:] {
		if err := d.Delete(f.ID); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	late := d.MustInsert("S", true, String("late"), Int(7))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, info, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The snapshot holds the watermark, both schemas and the live facts.
	if want := 1 + 2 + d.NumFacts() - 1; info.SnapshotRecords != want || info.LogRecords != 1 {
		t.Errorf("recovery = %+v, want %d snapshot records and 1 log record", info, want)
	}
	if got, want := dump(re), dump(d); got != want {
		t.Errorf("reloaded state differs:\n%s\nwant:\n%s", got, want)
	}
	if re.Fact(late.ID) == nil {
		t.Error("insert after Persist was not logged")
	}
}

// TestPersistRefusesPersistedDir: Persist never overwrites a directory
// that already holds a persisted database, and a database persists to at
// most one directory.
func TestPersistRefusesPersistedDir(t *testing.T) {
	dir := t.TempDir()
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("R", "a")
	d.MustInsert("R", true, Int(1))
	if err := d.Persist(PersistConfig{Dir: t.TempDir()}); err == nil {
		t.Error("a persistent database accepted a second directory")
	}
	d.Close()
	other := New()
	other.CreateRelation("R", "a")
	if err := other.Persist(PersistConfig{Dir: dir}); err == nil {
		t.Error("Persist clobbered a non-empty persisted directory; want refusal pointing at Open")
	}
	if err := New().Persist(PersistConfig{}); err == nil {
		t.Error("Persist accepted an empty directory name")
	}
}

// TestRestrictStaysInMemory: a restriction of a persistent database is an
// in-memory evaluation view; nothing done to it reaches the directory.
func TestRestrictStaysInMemory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir, Sync: SyncPolicy{Mode: SyncAlways}}); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	populate(t, d)
	before := dirSizes(t, dir)
	sub := d.Restrict(func(f *Fact) bool { return f.Endogenous })
	if sub.NumFacts() != d.NumEndogenous() {
		t.Errorf("restriction has %d facts, want %d", sub.NumFacts(), d.NumEndogenous())
	}
	sub.MustInsert("R", true, Int(7), String("view"))
	if err := sub.Delete(sub.EndogenousFacts()[0].ID); err != nil {
		t.Fatal(err)
	}
	if after := dirSizes(t, dir); after != before {
		t.Errorf("restriction wrote to the directory: %s, was %s", after, before)
	}
}

func dirSizes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fmt.Sprintf("%s=%d", e.Name(), info.Size()))
	}
	return strings.Join(parts, " ")
}

// dump renders a database's recoverable state — relations in creation
// order, facts in ID order with their flags and typed values, the next ID —
// one line each.
func dump(d *Database) string {
	var b strings.Builder
	var all []*Fact
	for _, name := range d.RelationNames() {
		rel := d.Relation(name)
		fmt.Fprintf(&b, "relation %s %s\n", name, strings.Join(rel.Schema.Columns, " "))
		all = append(all, rel.Facts()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	for _, f := range all {
		vals := make([]string, len(f.Tuple))
		for i, v := range f.Tuple {
			switch v.Kind() {
			case KindInt:
				vals[i] = "int:" + strconv.FormatInt(v.AsInt(), 10)
			case KindFloat:
				vals[i] = "float:" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
			default:
				vals[i] = "string:" + strconv.Quote(v.AsString())
			}
		}
		fmt.Fprintf(&b, "fact %d %s %v %s\n", f.ID, f.Relation, f.Endogenous, strings.Join(vals, " "))
	}
	fmt.Fprintf(&b, "next %d\n", d.nextID)
	return b.String()
}

// TestSortedStoreFixture reloads a directory written by the B-tree store
// this package used to persist with: a snapshot, then a log of inserts and
// deletes ending in a torn frame. testdata/sorted_store.golden holds the
// state that store itself recovered from the same files.
func TestSortedStoreFixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{logName, snapName} {
		data, err := os.ReadFile(filepath.Join("testdata", "sorted_store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "sorted_store.golden"))
	if err != nil {
		t.Fatal(err)
	}
	d, info, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()
	got := fmt.Sprintf("recovery snapshot=%d log=%d dropped=%d truncated=%v\n%s",
		info.SnapshotRecords, info.LogRecords, info.DroppedBytes, info.Truncated, dump(d))
	if got != string(golden) {
		t.Errorf("reloaded fixture:\n%s\nwant:\n%s", got, golden)
	}
}

// TestMutationOnUnknownRelation: inserts into a never-created relation,
// through the API or through log replay, fail with ErrUnknownRelation
// instead of panicking, and log nothing.
func TestMutationOnUnknownRelation(t *testing.T) {
	for name, d := range databasesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := d.Insert("ghost", true, Int(1)); !errors.Is(err, ErrUnknownRelation) {
				t.Errorf("Insert(ghost) = %v, want ErrUnknownRelation", err)
			}
			rec := logRecord{Op: "I", Rel: "ghost", ID: 1, Vals: []logValue{{K: uint8(KindInt), I: 1}}}
			if err := d.applyLogRecord(rec, false); !errors.Is(err, ErrUnknownRelation) {
				t.Errorf("replayed insert into ghost = %v, want ErrUnknownRelation", err)
			}
			if d.log != nil && d.log.records != 0 {
				t.Errorf("failed mutations logged %d records", d.log.records)
			}
			if err := d.Err(); err != nil {
				t.Errorf("client error degraded the database: %v", err)
			}
		})
	}
}

// TestInsertRejectsNonFinite: NaN, +Inf and −Inf are refused at Insert on
// both kinds of database, before anything is logged or applied. The
// database stays healthy, a valid insert still succeeds, and a reopen of
// the persistent one gives the same facts.
func TestInsertRejectsNonFinite(t *testing.T) {
	for name, d := range databasesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			d.CreateRelation("R", "x", "y")
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				_, err := d.Insert("R", true, Int(1), Float(bad))
				if err == nil || !strings.Contains(err.Error(), `"R"`) || !strings.Contains(err.Error(), `"y"`) {
					t.Fatalf("Insert of %v: err = %v, want an error naming relation R and column y", bad, err)
				}
				if err := d.Err(); err != nil {
					t.Fatalf("Insert of %v degraded the database: %v", bad, err)
				}
			}
			if d.NumFacts() != 0 || d.Epoch() != 0 {
				t.Fatalf("rejected inserts left %d facts at epoch %d", d.NumFacts(), d.Epoch())
			}
			f, err := d.Insert("R", true, Int(1), Float(2.5))
			if err != nil {
				t.Fatalf("valid insert after the rejections: %v", err)
			}
			if name != "persistent" {
				return
			}
			dir := d.log.dir
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			re, _, err := Open(PersistConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Fact(f.ID); re.NumFacts() != 1 || got == nil || !got.Tuple.Equal(f.Tuple) {
				t.Fatalf("reopen holds %d facts, fact %d = %v; want only %v", re.NumFacts(), f.ID, got, f.Tuple)
			}
		})
	}
}
