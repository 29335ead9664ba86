package db

import (
	"bytes"
	"encoding/json"
	"fmt"
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
