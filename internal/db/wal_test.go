package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    SyncPolicy
		wantErr bool
	}{
		{"", SyncPolicy{}, false},
		{"every", SyncPolicy{}, false},
		{"always", SyncPolicy{Mode: SyncAlways}, false},
		{"onclose", SyncPolicy{Mode: SyncOnClose}, false},
		{"every=1", SyncPolicy{Mode: SyncEveryN, N: 1}, false},
		{"every=256", SyncPolicy{Mode: SyncEveryN, N: 256}, false},
		{"every=0", SyncPolicy{}, true},
		{"every=-3", SyncPolicy{}, true},
		{"every=x", SyncPolicy{}, true},
		{"sometimes", SyncPolicy{}, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSyncPolicy(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, p := range []SyncPolicy{{}, {Mode: SyncAlways}, {Mode: SyncOnClose}, {Mode: SyncEveryN, N: 7}} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil {
			t.Errorf("round-trip %v: %v", p, err)
		} else if back.Mode != p.Mode || back.every() != p.every() {
			t.Errorf("round-trip %v = %v", p, back)
		}
	}
}

// buildWALDir persists a relation R with n facts and returns the
// directory (store cleanly closed).
func buildWALDir(t testing.TB, n int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("R", "a", "b")
	for i := 0; i < n; i++ {
		d.MustInsert("R", true, Int(int64(i)), String("x"))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The corruption cases start from a log of 5 records: 1 relation + 4
// inserts.
const relRecords, factRecords = 1, 4

// walCorruption is one way a crash or a bad disk damages a log.
type walCorruption struct {
	name string
	// corrupt edits the raw log given its frame boundaries.
	corrupt func(data []byte, frames []walFrame) []byte
	// wantRecords is the number of log records recovery must keep.
	wantRecords int
	wantFacts   int
	// wantDropped, if >= 0, is the exact torn-suffix length.
	wantDropped   int64
	wantTruncated bool
}

var walCorruptions = []walCorruption{
	{
		name:        "clean",
		corrupt:     func(data []byte, _ []walFrame) []byte { return data },
		wantRecords: relRecords + factRecords,
		wantFacts:   4,
		wantDropped: 0,
	},
	{
		name: "bit flip in payload",
		corrupt: func(data []byte, frames []walFrame) []byte {
			// Flip one payload byte of the 4th frame: its CRC fails, so
			// recovery keeps exactly the first 3 records.
			data[frames[3].end-2] ^= 0x40
			return data
		},
		wantRecords:   3,
		wantFacts:     2,
		wantDropped:   -1, // frame 4 + frame 5
		wantTruncated: true,
	},
	{
		name: "truncated length prefix",
		corrupt: func(data []byte, frames []walFrame) []byte {
			// Crash mid-header: 3 bytes of the final frame's length field.
			return data[:frames[3].end+3]
		},
		wantRecords:   4,
		wantFacts:     3,
		wantDropped:   3,
		wantTruncated: true,
	},
	{
		name: "bad checksum",
		corrupt: func(data []byte, frames []walFrame) []byte {
			// Stomp the final frame's CRC field (bytes 4..8 of its header).
			for i := frames[3].end + 4; i < frames[3].end+8; i++ {
				data[i] = 0xFF
			}
			return data
		},
		wantRecords:   4,
		wantFacts:     3,
		wantDropped:   -1,
		wantTruncated: true,
	},
	{
		name: "empty trailing frame",
		corrupt: func(data []byte, _ []walFrame) []byte {
			// A zero-length frame header is never written; treat as torn.
			return append(data, make([]byte, walHeaderSize)...)
		},
		wantRecords:   relRecords + factRecords,
		wantFacts:     4,
		wantDropped:   walHeaderSize,
		wantTruncated: true,
	},
	{
		name: "torn mid-payload",
		corrupt: func(data []byte, frames []walFrame) []byte {
			return data[:frames[4].end-5]
		},
		wantRecords:   4,
		wantFacts:     3,
		wantDropped:   -1,
		wantTruncated: true,
	},
}

// TestWALCorruptionRecovery feeds Open logs with every corruption
// shape a crash or bad disk produces and asserts the exact number of
// records that survive, the dropped byte counts, and that the truncated
// file reopens cleanly afterwards.
func TestWALCorruptionRecovery(t *testing.T) {
	for _, c := range walCorruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := buildWALDir(t, factRecords)
			logPath := filepath.Join(dir, logName)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			frames := scanFrames(data)
			if len(frames) != relRecords+factRecords {
				t.Fatalf("pristine log has %d frames, want %d", len(frames), relRecords+factRecords)
			}
			if err := os.WriteFile(logPath, c.corrupt(data, frames), 0o644); err != nil {
				t.Fatal(err)
			}

			d, info, err := Open(PersistConfig{Dir: dir})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if info.LogRecords != c.wantRecords {
				t.Errorf("LogRecords = %d, want %d", info.LogRecords, c.wantRecords)
			}
			if d.NumFacts() != c.wantFacts {
				t.Errorf("NumFacts = %d, want %d", d.NumFacts(), c.wantFacts)
			}
			if info.Truncated != c.wantTruncated {
				t.Errorf("Truncated = %v, want %v", info.Truncated, c.wantTruncated)
			}
			if c.wantDropped >= 0 && info.DroppedBytes != c.wantDropped {
				t.Errorf("DroppedBytes = %d, want %d", info.DroppedBytes, c.wantDropped)
			}
			if c.wantTruncated && info.DroppedBytes <= 0 {
				t.Errorf("DroppedBytes = %d, want > 0", info.DroppedBytes)
			}
			// The store must be writable after recovery, and a second open
			// must find a healed (fully valid) log.
			if _, err := d.Insert("R", true, Int(100), String("post")); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, info2, err := Open(PersistConfig{Dir: dir})
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			if info2.Truncated || info2.DroppedBytes != 0 {
				t.Errorf("second open still dirty: %+v", info2)
			}
			if d2.NumFacts() != c.wantFacts+1 {
				t.Errorf("second open NumFacts = %d, want %d", d2.NumFacts(), c.wantFacts+1)
			}
			d2.Close()
		})
	}
}

// TestSyncAlwaysIsImmediatelyDurable: with SyncPolicy Always every
// acknowledged insert is on disk before the call returns — no Close, no
// flush, the file alone must hold every frame.
func TestSyncAlwaysIsImmediatelyDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir, Sync: SyncPolicy{Mode: SyncAlways}}); err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("R", "a")
	for i := 0; i < 5; i++ {
		d.MustInsert("R", true, Int(int64(i)))
	}
	// Abandon the database without Close: a crash right now.
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scanFrames(data)); got != 6 {
		t.Fatalf("on-disk frames = %d, want 6 (1 relation + 5 inserts)", got)
	}
	re, _, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if re.NumFacts() != 5 {
		t.Fatalf("recovered NumFacts = %d, want 5", re.NumFacts())
	}
	re.Close()
}

// TestCompactionBoundsReplay churns inserts and deletes far past the live
// fact count and checks (a) auto-compaction keeps the log bounded and (b)
// reopening replays O(live facts) records, not O(total mutations).
func TestCompactionBoundsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("R", "a")
	const live = 8
	var alive []FactID
	for i := 0; i < live; i++ {
		alive = append(alive, d.MustInsert("R", true, Int(int64(i))).ID)
	}
	// Net-zero churn: insert + delete, 3000 mutation pairs.
	const churn = 3000
	for i := 0; i < churn; i++ {
		f := d.MustInsert("R", true, Int(int64(1000+i)))
		if err := d.Delete(f.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, info, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumFacts() != live {
		t.Fatalf("NumFacts = %d, want %d", re.NumFacts(), live)
	}
	total := info.SnapshotRecords + info.LogRecords
	if total == 0 {
		t.Fatal("no snapshot was taken despite heavy churn")
	}
	// 2*churn + live + 1 mutations were logged; replay must be bounded by
	// the compaction threshold, far below that.
	if limit := 2 * compactMinRecords; total > limit {
		t.Errorf("reopen replayed %d records (snapshot %d + log %d), want <= %d",
			total, info.SnapshotRecords, info.LogRecords, limit)
	}
	for _, id := range alive {
		if re.Fact(id) == nil {
			t.Errorf("live fact %d lost across compaction", id)
		}
	}
	if f, err := re.Insert("R", true, Int(9999)); err != nil {
		t.Fatal(err)
	} else if f.ID <= alive[live-1] {
		t.Errorf("post-compaction ID %d not above watermark", f.ID)
	}
}

// TestStaleLogAfterSnapshotReplaysIdempotently simulates a crash inside
// the compaction window between the snapshot rename and the log
// truncation: the log still holds records the snapshot already covers,
// and replay must skip them instead of failing.
func TestStaleLogAfterSnapshotReplaysIdempotently(t *testing.T) {
	dir := buildWALDir(t, 3)
	d, _, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-create the stale log: duplicate records already in the snapshot —
	// the relation, an existing insert, and a delete of a never-live ID.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	stale := []logRecord{
		{Op: "R", Rel: "R", Cols: []string{"a", "b"}},
		{Op: "I", Rel: "R", ID: 2, Endo: true, Vals: []logValue{{K: 0, I: 1}, {K: 1, S: "x"}}},
		{Op: "D", ID: 9999},
	}
	for _, rec := range stale {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendFrame(nil, append(b, '\n'))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	re, info, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen over stale log: %v", err)
	}
	defer re.Close()
	if re.NumFacts() != 3 {
		t.Errorf("NumFacts = %d, want 3 (stale records double-applied?)", re.NumFacts())
	}
	if info.SnapshotRecords == 0 || info.LogRecords != len(stale) {
		t.Errorf("recovery = %+v, want snapshot plus %d stale log records", info, len(stale))
	}
	// The existing fact must be the snapshot's copy, untouched.
	if got := re.Fact(2); got == nil || !got.Endogenous {
		t.Errorf("fact 2 = %v after idempotent replay", got)
	}
}

// TestLegacyLogMigration: a pre-WAL JSONL log is detected, replayed, and
// rewritten in the framed format.
func TestLegacyLogMigration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var legacy []byte
	recs := []logRecord{
		{Op: "R", Rel: "R", Cols: []string{"a"}},
		{Op: "I", Rel: "R", ID: 1, Endo: true, Vals: []logValue{{K: 0, I: 7}}},
		{Op: "I", Rel: "R", ID: 2, Endo: false, Vals: []logValue{{K: 0, I: 8}}},
		{Op: "D", ID: 2},
	}
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, b...)
		legacy = append(legacy, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, logName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	d, info, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	if info.LogRecords != len(recs) {
		t.Errorf("LogRecords = %d, want %d", info.LogRecords, len(recs))
	}
	if d.NumFacts() != 1 || d.Fact(1) == nil {
		t.Fatalf("legacy replay: NumFacts = %d, Fact(1) = %v", d.NumFacts(), d.Fact(1))
	}
	if _, err := d.Insert("R", true, Int(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Migration must have left a framed layout: a snapshot plus a
	// non-legacy log that reopens without dropping anything.
	if data, err := os.ReadFile(filepath.Join(dir, logName)); err != nil || legacyLog(data) {
		t.Fatalf("log still legacy after migration (err=%v)", err)
	}
	re, info2, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info2.SnapshotRecords == 0 || info2.Truncated {
		t.Errorf("post-migration recovery = %+v, want snapshot and clean log", info2)
	}
	if re.NumFacts() != 2 {
		t.Errorf("post-migration NumFacts = %d, want 2", re.NumFacts())
	}
}

// TestDegradedAfterWriteFailure: a failed log append rolls the mutation
// back, surfaces ErrDegraded, and leaves reads working on the consistent
// pre-failure state.
func TestDegradedAfterWriteFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	failing := &flakyFile{}
	open := func(path string, flag int, perm os.FileMode) (WALFile, error) {
		f, err := os.OpenFile(path, flag, perm)
		if err != nil {
			return nil, err
		}
		failing.f = f
		return failing, nil
	}
	d := New()
	if err := d.Persist(PersistConfig{Dir: dir, Sync: SyncPolicy{Mode: SyncAlways}, OpenFile: open}); err != nil {
		t.Fatal(err)
	}
	d.CreateRelation("R", "a")
	ok := d.MustInsert("R", true, Int(1))
	failing.fail = true

	if _, err := d.Insert("R", true, Int(2)); err == nil {
		t.Fatal("insert succeeded through a failing log")
	} else if !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert error %v does not wrap ErrDegraded", err)
	}
	if err := d.Err(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Err() = %v, want degraded", err)
	}
	// Read path still serves the consistent pre-failure state.
	if d.NumFacts() != 1 || d.Fact(ok.ID) == nil {
		t.Fatalf("degraded reads broken: NumFacts=%d", d.NumFacts())
	}
	if got := d.Relation("R").Len(); got != 1 {
		t.Fatalf("store Len = %d, want 1 (failed insert not rolled back)", got)
	}
	// Further mutations are refused outright.
	if err := d.Delete(ok.ID); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete on degraded db = %v", err)
	}
	if d.Fact(ok.ID) == nil {
		t.Fatal("refused delete still removed the fact")
	}
	// Recovery on restart sees only the acknowledged insert.
	failing.fail = false
	re, _, err := Open(PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumFacts() != 1 {
		t.Fatalf("recovered NumFacts = %d, want 1", re.NumFacts())
	}
}

// flakyFile passes through to an *os.File until fail is set.
type flakyFile struct {
	f    *os.File
	fail bool
}

func (w *flakyFile) Write(p []byte) (int, error) {
	if w.fail {
		return 0, fmt.Errorf("flaky: no space left on device")
	}
	return w.f.Write(p)
}
func (w *flakyFile) Sync() error {
	if w.fail {
		return fmt.Errorf("flaky: fsync failed")
	}
	return w.f.Sync()
}
func (w *flakyFile) Close() error { return w.f.Close() }
