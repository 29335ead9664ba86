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
// ID, relation, flag and the key encoding of their values) or next ID; ""
// if they do not. Values compare by key, not by Equal: Equal counts
// Int(1) and Float(1) as one value, while joins keep them apart.
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
		if g == nil || g.Relation != f.Relation || g.Endogenous != f.Endogenous || TupleKey(g.Tuple, nil) != TupleKey(f.Tuple, nil) {
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

// fuzzTuples encodes a pair of same-arity tuples as FuzzTupleKey reads
// them: the arity, a's values, then for each position of b a control byte
// (even: copy a's value) and, when odd, b's own value.
func fuzzTuples(a, b Tuple) []byte {
	data := []byte{byte(len(a) - 1)}
	for _, v := range a {
		data = appendFuzzValue(data, v)
	}
	for i, v := range b {
		if v.Kind() == a[i].Kind() && v.Key() == a[i].Key() {
			data = append(data, 0)
			continue
		}
		data = appendFuzzValue(append(data, 1), v)
	}
	return data
}

// FuzzTupleKey: two tuples of the same arity (1–4) built from the input,
// over ints (2^53±1 among the seeds), floats (±0 among them) and strings
// with 0x00, 0xFF and invalid UTF-8, have equal Tuple.Keys exactly when
// every position has the same kind and value. The second tuple copies
// some of the first's values, so equal and near-equal pairs both occur.
func FuzzTupleKey(f *testing.F) {
	// neg0 keeps its sign bit, so the seed encodes -0; fuzzValue builds it
	// back through Float, as every decoded float.
	neg0 := Value{kind: KindFloat, f: math.Copysign(0, -1)}
	for _, c := range [][2]Tuple{
		{{String("a\x00sb"), String("c")}, {String("a"), String("b\x00sc")}},
		{{String("x\x00i5"), Int(0)}, {String("x"), Int(5)}},
		{{String("\x00\xff"), String("\xff")}, {String("\x00"), String("\xff\xff")}},
		{{String("\xc3\x28"), String("\xfe")}, {String("\xc3\x28"), String("\xfe\x00")}},
		{{Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1)}, {Float(1<<53 - 1), Float(1 << 53), Float(1<<53 + 1)}},
		{{Float(0), neg0}, {neg0, Float(0)}},
		{{Int(0)}, {Float(0)}},
	} {
		f.Add(fuzzTuples(c[0], c[1]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%4) + 1
		data = data[1:]
		a, b := make(Tuple, n), make(Tuple, n)
		for i := range a {
			a[i], data = fuzzValue(data)
		}
		for i := range b {
			if len(data) > 0 && data[0]%2 == 0 {
				b[i], data = a[i], data[1:]
				continue
			}
			if len(data) > 0 {
				data = data[1:]
			}
			b[i], data = fuzzValue(data)
		}
		if same, eq := sameValues(a, b), a.Key() == b.Key(); same != eq {
			t.Fatalf("%q and %q: same values %v, equal keys %v (%q, %q)", a, b, same, eq, a.Key(), b.Key())
		}
	})
}
