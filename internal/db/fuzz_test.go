package db

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// schemaPayload is the valid schema record framed ahead of fuzzed payloads.
const schemaPayload = `{"op":"R","rel":"R","cols":["a","b"]}`

// invalidRecords are checksum-valid insert records that replay must
// reject: fact IDs 0 and -5 (IDs are assigned from 1) and a value kind no
// Value has.
var invalidRecords = []string{
	`{"op":"I","rel":"R","id":0,"endo":true,"vals":[{"k":0,"i":1},{"k":1,"s":"x"}]}`,
	`{"op":"I","rel":"R","id":-5,"endo":true,"vals":[{"k":0,"i":1},{"k":1,"s":"x"}]}`,
	`{"op":"I","rel":"R","id":1,"endo":true,"vals":[{"k":9,"i":1},{"k":1,"s":"x"}]}`,
}

// framedLog frames the schema record and then each non-empty line of
// payloads, the way a persistent database appends its records.
func framedLog(payloads []byte) []byte {
	data := appendFrame(nil, []byte(schemaPayload+"\n"))
	for _, p := range bytes.Split(payloads, []byte("\n")) {
		if len(p) > 0 {
			data = appendFrame(data, append(bytes.Clone(p), '\n'))
		}
	}
	return data
}

// openLog writes data as the log of a fresh directory and opens it.
func openLog(t *testing.T, data []byte) (string, *Database, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, err := Open(PersistConfig{Dir: dir})
	return dir, d, err
}

// TestReplayRejectsInvalidRecords: a well-framed record with a fact ID
// below 1 or an unknown value kind fails the open, naming the record.
func TestReplayRejectsInvalidRecords(t *testing.T) {
	for _, rec := range invalidRecords {
		_, d, err := openLog(t, framedLog([]byte(rec)))
		if err == nil {
			d.Close()
			t.Errorf("replay accepted %s", rec)
			continue
		}
		if want := logName + " record 1"; !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// checkRecovered asserts the invariants every recovered database keeps:
// each fact has a positive ID below the next ID, its relation's arity and
// known value kinds, and the relations hold exactly the ID-indexed facts.
func checkRecovered(t *testing.T, d *Database) {
	t.Helper()
	stored := 0
	for _, name := range d.RelationNames() {
		rel := d.Relation(name)
		for f := range rel.Scan() {
			stored++
			if f.ID < 1 || f.ID >= d.nextID {
				t.Fatalf("fact %v: ID outside [1, %d)", f, d.nextID)
			}
			if d.Fact(f.ID) != f || f.Relation != name {
				t.Fatalf("fact %v is not the database's fact %d of %s", f, f.ID, name)
			}
			if len(f.Tuple) != rel.Schema.Arity() {
				t.Fatalf("fact %v: %d values for arity %d", f, len(f.Tuple), rel.Schema.Arity())
			}
			for _, v := range f.Tuple {
				if k := v.Kind(); k != KindInt && k != KindString && k != KindFloat {
					t.Fatalf("fact %v: value of unknown kind %d", f, k)
				}
			}
		}
	}
	if stored != d.NumFacts() {
		t.Fatalf("relations hold %d facts, the database %d", stored, d.NumFacts())
	}
}

// sameState reports how two databases differ in relations, facts (by
// ID, relation, flag and values) or next ID; ""
// if they do not. Values compare kind by kind (sameValues), not by Equal:
// Equal counts Int(1) and Float(1) as one value, and a reopen must give
// back each value's kind too.
func sameState(a, b *Database) string {
	if !slices.Equal(a.RelationNames(), b.RelationNames()) {
		return fmt.Sprintf("relations %v vs %v", a.RelationNames(), b.RelationNames())
	}
	for _, name := range a.RelationNames() {
		if ca, cb := a.Relation(name).Schema.Columns, b.Relation(name).Schema.Columns; !slices.Equal(ca, cb) {
			return fmt.Sprintf("relation %s columns %v vs %v", name, ca, cb)
		}
	}
	if a.nextID != b.nextID || a.NumFacts() != b.NumFacts() {
		return fmt.Sprintf("next ID %d vs %d, %d vs %d facts", a.nextID, b.nextID, a.NumFacts(), b.NumFacts())
	}
	for id, f := range a.facts {
		g := b.facts[id]
		if g == nil || g.Relation != f.Relation || g.Endogenous != f.Endogenous || !sameValues(g.Tuple, f.Tuple) {
			return fmt.Sprintf("fact %v vs %v", f, g)
		}
	}
	return ""
}

// seedLogs returns logs a persistent database writes: inserts and deletes
// across two relations, the snapshot a compaction of that state writes
// (replayed as a log), the pristine corruption-test log with each
// corruption applied, and a pre-WAL JSONL log.
func seedLogs(f *testing.F) [][]byte {
	dir := filepath.Join(f.TempDir(), "ds")
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir, Sync: SyncPolicy{Mode: SyncAlways}}); err != nil {
		f.Fatal(err)
	}
	d.CreateRelation("R", "a", "b")
	d.CreateRelation("S", "x")
	var ids []FactID
	for i := 0; i < 6; i++ {
		ids = append(ids, d.MustInsert("R", i%2 == 0, Int(int64(i)), String(fmt.Sprint("v", i))).ID)
	}
	d.MustInsert("S", true, Float(-2.5))
	for _, id := range ids[1:3] {
		if err := d.Delete(id); err != nil {
			f.Fatal(err)
		}
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	seeds := [][]byte{read(logName)}
	if err := d.Compact(); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, read(snapName))
	d.Close()

	pristine, err := os.ReadFile(filepath.Join(buildWALDir(f, factRecords), logName))
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range walCorruptions {
		data := bytes.Clone(pristine)
		seeds = append(seeds, c.corrupt(data, scanFrames(data)))
	}

	var legacy []byte
	for _, rec := range []logRecord{
		{Op: "R", Rel: "R", Cols: []string{"a"}},
		{Op: "I", Rel: "R", ID: 1, Endo: true, Vals: []logValue{{K: 0, I: 7}}},
		{Op: "I", Rel: "R", ID: 2, Vals: []logValue{{K: 2, F: 0.5}}},
		{Op: "D", ID: 2},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		legacy = append(append(legacy, b...), '\n')
	}
	return append(seeds, legacy)
}

// FuzzOpenPersisted feeds recovery arbitrary log bytes (framed false) and
// arbitrary record payloads in valid frames after a valid schema record
// (framed true). Opening must never panic; a database it opens must keep
// checkRecovered's invariants; and closing and reopening it must give the
// same relations, facts and next ID without truncating anything.
func FuzzOpenPersisted(f *testing.F) {
	for _, seed := range seedLogs(f) {
		f.Add(false, seed)
	}
	for _, rec := range invalidRecords {
		f.Add(true, []byte(rec))
	}
	f.Add(true, []byte(`{"op":"I","rel":"R","id":3,"vals":[{"k":2,"f":1.5},{"k":1,"s":"y"}]}`+"\n"+`{"op":"M","id":9}`+"\n"+`{"op":"D","id":3}`))
	f.Add(true, []byte(`{"op":"I","rel":"R","id":1,"vals":[{"k":2,"f":-0},{"k":1,"s":"z"}]}`))
	f.Fuzz(func(t *testing.T, framed bool, data []byte) {
		if framed {
			data = framedLog(data)
		}
		dir, d, err := openLog(t, data)
		if err != nil {
			return
		}
		checkRecovered(t, d)
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, info, err := Open(PersistConfig{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if info.Truncated {
			t.Fatalf("reopen truncated %d bytes", info.DroppedBytes)
		}
		if diff := sameState(d, re); diff != "" {
			t.Fatalf("reopened state differs: %s", diff)
		}
	})
}

// fuzzValue decodes one value from the front of data: a kind byte (int,
// float or string, modulo 3), then an 8-byte big-endian int or float
// payload, or a length byte and that many string bytes. Short input is
// zero-padded.
func fuzzValue(data []byte) (Value, []byte) {
	if len(data) == 0 {
		return Int(0), nil
	}
	kind, data := data[0]%3, data[1:]
	if kind == 2 {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0]), data[1:]
		}
		n = min(n, len(data))
		return String(string(data[:n])), data[n:]
	}
	var b [8]byte
	data = data[copy(b[:], data):]
	u := binary.BigEndian.Uint64(b[:])
	if kind == 0 {
		return Int(int64(u)), data
	}
	return Float(math.Float64frombits(u)), data
}

// appendFuzzValue appends the encoding fuzzValue decodes back to v.
func appendFuzzValue(dst []byte, v Value) []byte {
	switch v.Kind() {
	case KindInt:
		return binary.BigEndian.AppendUint64(append(dst, 0), uint64(v.AsInt()))
	case KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, 1), math.Float64bits(v.AsFloat()))
	}
	return append(append(dst, 2, byte(len(v.AsString()))), v.AsString()...)
}

// fuzzTuples encodes three same-arity tuples as FuzzTupleKey reads them:
// the arity, a's values, then for each position of b and then of c a
// control byte (0: copy a's value) and, when 1, the tuple's own value.
func fuzzTuples(a, b, c Tuple) []byte {
	data := []byte{byte(len(a) - 1)}
	for _, v := range a {
		data = appendFuzzValue(data, v)
	}
	for _, t := range []Tuple{b, c} {
		for i, v := range t {
			if sameValues(Tuple{v}, Tuple{a[i]}) {
				data = append(data, 0)
				continue
			}
			data = appendFuzzValue(append(data, 1), v)
		}
	}
	return data
}

// fuzzNeighbour decodes one value of a tuple that follows a: by the
// control byte modulo 4, a's value (0), a value of its own (1), a's value
// in the other numeric kind (2: an int's nearest float, a float's
// truncation when it fits an int) or a's value nudged up (3: the next int
// or float, or the string with a 0x00 appended). So Equal values of
// different kinds, and close unequal ones, occur often.
func fuzzNeighbour(a Value, data []byte) (Value, []byte) {
	if len(data) == 0 {
		return a, nil
	}
	ctl, data := data[0]%4, data[1:]
	switch {
	case ctl == 1:
		return fuzzValue(data)
	case ctl == 2 && a.Kind() == KindInt:
		return Float(float64(a.AsInt())), data
	case ctl == 2 && a.Kind() == KindFloat && a.AsFloat() >= -0x1p63 && a.AsFloat() < 0x1p63:
		return Int(int64(a.AsFloat())), data
	case ctl == 3 && a.Kind() == KindInt:
		return Int(a.AsInt() + 1), data
	case ctl == 3 && a.Kind() == KindFloat:
		return Float(math.Nextafter(a.AsFloat(), math.Inf(1))), data
	case ctl == 3:
		return String(a.AsString() + "\x00"), data
	}
	return a, data
}

// FuzzTupleKey: three tuples of the same arity (1–4) built from the
// input, over ints, floats (±0, 2^53, 2^63 and NaN among the seeds) and
// strings with 0x00, 0xFF and invalid UTF-8. Two of them have equal
// Tuple.Keys exactly when they are Equal, and Compare, position by
// position, is antisymmetric and transitive on the three. The second and
// third tuples copy, convert or nudge some of the first's values, so Equal
// values of different kinds and near-equal ones both occur.
func FuzzTupleKey(f *testing.F) {
	// neg0 keeps its sign bit, so the seed encodes -0; fuzzValue builds it
	// back through Float, as every decoded float.
	neg0 := Value{kind: KindFloat, f: math.Copysign(0, -1)}
	for _, c := range [][3]Tuple{
		{{String("a\x00sb"), String("c")}, {String("a"), String("b\x00sc")}, {String("a\x00sb"), String("c")}},
		{{String("x\x00i5"), Int(0)}, {String("x"), Int(5)}, {String("x"), Float(5)}},
		{{String("\x00\xff"), String("\xff")}, {String("\x00"), String("\xff\xff")}, {String("\x00"), String("\xff")}},
		{{String("\xc3\x28"), String("\xfe")}, {String("\xc3\x28"), String("\xfe\x00")}, {String("\xc3"), String("\xfe")}},
		{{Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1)}, {Float(1<<53 - 1), Float(1 << 53), Float(1<<53 + 1)}, {Int(1<<53 - 1), Int(1<<53 + 1), Int(1 << 53)}},
		{{Int(1<<53 + 1)}, {Float(1 << 53)}, {Int(1 << 53)}},
		{{Float(0), neg0}, {neg0, Float(0)}, {Int(0), Int(0)}},
		{{Int(0)}, {Float(0)}, {Float(0.5)}},
		{{Int(math.MaxInt64)}, {Float(0x1p63)}, {Int(math.MinInt64)}},
		{{Float(math.NaN())}, {Float(math.Inf(-1))}, {Int(math.MinInt64)}},
	} {
		f.Add(fuzzTuples(c[0], c[1], c[2]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%4) + 1
		data = data[1:]
		a, b, c := make(Tuple, n), make(Tuple, n), make(Tuple, n)
		for i := range a {
			a[i], data = fuzzValue(data)
		}
		for _, u := range []Tuple{b, c} {
			for i := range u {
				u[i], data = fuzzNeighbour(a[i], data)
			}
		}
		for _, p := range [][2]Tuple{{a, b}, {a, c}, {b, c}} {
			x, y := p[0], p[1]
			if same, eq := x.Equal(y), x.Key() == y.Key(); same != eq {
				t.Fatalf("%q and %q: Equal %v, equal keys %v (%q, %q)", x, y, same, eq, x.Key(), y.Key())
			}
		}
		for i := range a {
			checkOrder(t, a[i], b[i], c[i])
		}
	})
}

// checkOrder fails unless Compare is antisymmetric on every pair of x, y
// and z and transitive along every ordering of the three.
func checkOrder(t *testing.T, x, y, z Value) {
	t.Helper()
	vs := []Value{x, y, z}
	for _, u := range vs {
		for _, v := range vs {
			if u.Compare(v) != -v.Compare(u) {
				t.Fatalf("%v %v vs %v %v: Compare %d one way, %d the other", u.Kind(), u, v.Kind(), v, u.Compare(v), v.Compare(u))
			}
			for _, w := range vs {
				uv, vw, uw := u.Compare(v), v.Compare(w), u.Compare(w)
				if uv <= 0 && vw <= 0 && (uw > 0 || (uv < 0 || vw < 0) && uw == 0) {
					t.Fatalf("%v %v, %v %v, %v %v: Compare %d, %d, but %d end to end",
						u.Kind(), u, v.Kind(), v, w.Kind(), w, uv, vw, uw)
				}
			}
		}
	}
}
