package db

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// A database with a directory is persistent: every mutation is appended to
// a checksummed write-ahead log (framed by wal.go) before it is applied,
// so the dataset survives the process — and survives the process dying
// mid-write: Open replays the snapshot plus the log's valid prefix and
// truncates any torn suffix.
//
// On-disk layout of a persistent database's directory:
//
//	facts.log     framed WAL of mutations since the last snapshot
//	snapshot.log  framed snapshot: watermark + schemas + live facts
//	snapshot.tmp  in-progress snapshot (removed on open; never read)
const (
	logName     = "facts.log"
	snapName    = "snapshot.log"
	snapTmpName = "snapshot.tmp"
)

// PersistConfig says where and how a database persists: its directory,
// the WAL sync policy and (for fault-injection tests) the function used to
// open the WAL and snapshot files for writing.
type PersistConfig struct {
	Dir string
	// Sync is the WAL durability policy; the zero value is
	// SyncEveryN/DefaultSyncEvery.
	Sync SyncPolicy
	// OpenFile opens WAL and snapshot files for writing; nil means
	// os.OpenFile. Tests inject faultfs wrappers here.
	OpenFile OpenFileFunc
}

// walLog is the durable side of a persistent database: its directory and
// the open write-ahead log.
type walLog struct {
	dir      string
	sync     SyncPolicy
	openFile OpenFileFunc
	// w is nil once a failed log rotation left nothing to append to.
	w *walWriter
	// records counts records in the live log file; compaction compares it
	// against the live fact count to decide when replay cost has outgrown
	// the data.
	records int
}

func newWALLog(cfg PersistConfig) (*walLog, error) {
	if cfg.Dir == "" {
		return nil, errors.New("db: persistence needs a directory")
	}
	if err := cfg.Sync.Validate(); err != nil {
		return nil, err
	}
	open := cfg.OpenFile
	if open == nil {
		open = osOpenFile
	}
	return &walLog{dir: cfg.Dir, sync: cfg.Sync, openFile: open}, nil
}

// open opens (creating if needed) the live WAL for appending. extraFlag
// is or-ed into create+write-only+append (O_TRUNC when rotating after a
// snapshot).
func (l *walLog) open(extraFlag int) error {
	f, err := l.openFile(filepath.Join(l.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|extraFlag, 0o644)
	if err != nil {
		return fmt.Errorf("db: log: %w", err)
	}
	l.w = newWALWriter(f, l.sync)
	return nil
}

// append writes one record to the WAL under the sync policy. Errors
// propagate to the mutation that caused them — a full disk is a failed
// insert, not a dead process.
func (l *walLog) append(rec logRecord) error {
	if l.w == nil {
		return errWALClosed
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("db: log encode: %v", err)) // all fields are marshalable
	}
	if err := l.w.Append(append(b, '\n')); err != nil {
		return err
	}
	l.records++
	return nil
}

// snapshot atomically replaces the directory's durable state with the
// given records (a full image: watermark, schemas, live facts) and rotates
// the WAL so replay cost on the next open is proportional to live data,
// not to mutation history. The snapshot is crash-safe at every step: it is
// written to snapshot.tmp, fsynced, and renamed over snapshot.log; only
// then is the log truncated. A crash inside the rename→truncate window
// leaves a snapshot plus a stale log, which replay handles idempotently.
//
// On a post-rename failure the log can no longer append (w == nil): the
// data is safe on disk but the database is effectively read-only, and the
// caller should degrade.
func (l *walLog) snapshot(recs []logRecord) error {
	tmp := filepath.Join(l.dir, snapTmpName)
	f, err := l.openFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("db: snapshot: %w", err)
	}
	w := newWALWriter(f, SyncPolicy{Mode: SyncOnClose})
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			panic(fmt.Sprintf("db: snapshot encode: %v", err)) // all fields are marshalable
		}
		if err := w.Append(append(b, '\n')); err != nil {
			w.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("db: snapshot rename: %w", err)
	}
	syncDir(l.dir)
	// The snapshot now owns every live fact; retire the log. Closing the
	// old writer first makes its buffered tail reach the file before the
	// truncating reopen discards it — harmless either way, since every
	// logged record is covered by the snapshot.
	var cerr error
	if l.w != nil {
		cerr = l.w.Close()
		l.w = nil
	}
	if err := l.open(os.O_TRUNC); err != nil {
		return err
	}
	l.records = 0
	return cerr
}

// Persist makes an in-memory database persistent in place under cfg.Dir:
// it writes the live state (schemas, facts with their IDs and endogenous
// flags, the next-ID watermark) as the directory's snapshot — a database
// without relations needs none — and then logs every later mutation, so
// Open restores the database exactly. The directory is created if
// needed; one already holding a persisted database is refused — reopen it
// with Open instead.
func (d *Database) Persist(cfg PersistConfig) error {
	if d.log != nil {
		return fmt.Errorf("db: database already persists to %s", d.log.dir)
	}
	l, err := newWALLog(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("db: persist dir: %w", err)
	}
	if Persisted(cfg.Dir) {
		return fmt.Errorf("db: %s already holds a persisted database; reopen it with db.Open", cfg.Dir)
	}
	if len(d.order) == 0 {
		err = l.open(0)
	} else {
		err = l.snapshot(d.snapshotRecords())
	}
	if err != nil {
		return err
	}
	d.log = l
	return nil
}

// Open reloads a persisted database: it replays the snapshot (if any) and
// then the mutation log under cfg.Dir — schema creations, inserts (original
// fact IDs and endogenous flags preserved), deletes — and resumes
// appending to the same log, so the reloaded database continues exactly
// where the writer left off.
//
// Recovery is crash-tolerant: a torn or corrupt log suffix (the signature
// of a crash mid-append) is truncated and reported in RecoveryInfo rather
// than failing the load, so the database reopens at the last
// prefix-consistent state. A checksum-valid record that replay cannot
// apply (an unknown relation, a bad fact ID or value kind) fails the load
// and is named in the error. Pre-WAL JSONL logs are detected, replayed,
// and compacted into the current format.
func Open(cfg PersistConfig) (*Database, RecoveryInfo, error) {
	var info RecoveryInfo
	l, err := newWALLog(cfg)
	if err != nil {
		return nil, info, err
	}
	snapRecs, logRecs, info, legacy, err := readStoreState(cfg.Dir)
	if err != nil {
		return nil, info, err
	}
	d := New()
	for i, rec := range snapRecs {
		if err := d.applyLogRecord(rec, false); err != nil {
			return nil, info, fmt.Errorf("db: replaying %s record %d: %w", snapName, i, err)
		}
	}
	// With a snapshot present the log is replayed idempotently: a crash
	// between a compaction's atomic rename and its log truncation leaves a
	// stale log whose records are already in the snapshot, and skipping
	// the duplicates is exactly the right recovery.
	lenient := len(snapRecs) > 0
	for i, rec := range logRecs {
		if err := d.applyLogRecord(rec, lenient); err != nil {
			return nil, info, fmt.Errorf("db: replaying %s record %d: %w", logName, i, err)
		}
	}
	if err := l.open(0); err != nil {
		return nil, info, err
	}
	l.records = len(logRecs)
	d.log = l
	if legacy {
		// Rewrite the pre-WAL JSONL log as snapshot + empty framed log so
		// subsequent appends don't mix formats in one file.
		if err := d.Compact(); err != nil {
			d.Close()
			return nil, info, fmt.Errorf("db: migrating legacy log: %w", err)
		}
	}
	return d, info, nil
}

// applyLogRecord replays one snapshot or WAL record. In lenient mode,
// records whose effect is already present (relation exists, fact ID live,
// fact already gone) are skipped: replaying a stale log over a snapshot
// that subsumes it must be idempotent.
func (d *Database) applyLogRecord(rec logRecord, lenient bool) error {
	switch rec.Op {
	case "M":
		if rec.ID > d.nextID {
			d.nextID = rec.ID
		}
		return nil
	case "R":
		if _, ok := d.relations[rec.Rel]; ok {
			if lenient {
				return nil
			}
			return fmt.Errorf("db: relation %q created twice", rec.Rel)
		}
		d.CreateRelation(rec.Rel, rec.Cols...)
		return nil
	case "I":
		// IDs are assigned from 1, and the next ID must stay representable.
		if rec.ID < 1 || rec.ID == math.MaxInt {
			return fmt.Errorf("db: insert of invalid fact ID %d", rec.ID)
		}
		if d.facts[rec.ID] != nil {
			if lenient {
				return nil
			}
			return fmt.Errorf("db: fact ID %d inserted twice", rec.ID)
		}
		tuple, err := rec.tuple()
		if err != nil {
			return err
		}
		return d.restoreFact(&Fact{ID: rec.ID, Relation: rec.Rel, Tuple: tuple, Endogenous: rec.Endo})
	case "D":
		if d.facts[rec.ID] == nil {
			if lenient {
				return nil
			}
			return fmt.Errorf("db: %w with ID %d", ErrNoFact, rec.ID)
		}
		return d.Delete(rec.ID)
	default:
		return fmt.Errorf("db: unknown op %q", rec.Op)
	}
}

// restoreFact inserts a fully formed fact (ID already assigned) during log
// replay, keeping nextID ahead of every restored ID.
func (d *Database) restoreFact(f *Fact) error {
	rel, ok := d.relations[f.Relation]
	if !ok {
		return fmt.Errorf("db: %w %q", ErrUnknownRelation, f.Relation)
	}
	if len(f.Tuple) != rel.Schema.Arity() {
		return fmt.Errorf("db: relation %q has arity %d, got %d values: %w",
			f.Relation, rel.Schema.Arity(), len(f.Tuple), ErrArity)
	}
	rel.insert(f)
	d.facts[f.ID] = f
	if f.ID >= d.nextID {
		d.nextID = f.ID + 1
	}
	d.record(f, false)
	return nil
}

// Close flushes, fsyncs, and closes a persistent database's log and
// detaches it, so the database lives on in memory only (a no-op for an
// in-memory database). The first failure is returned — a failed flush
// means the tail of the log never reached the disk, and callers must hear
// about it.
func (d *Database) Close() error {
	l := d.log
	if l == nil {
		return nil
	}
	d.log = nil
	if l.w == nil {
		return nil
	}
	return l.w.Close()
}

// Compaction heuristics: a persistent database compacts when its log holds
// at least compactMinRecords records AND more than compactFactor times the
// live data (facts + schemas). The first bound keeps small datasets from
// snapshotting constantly; the second bounds reopen replay to O(live
// facts) no matter how much churn the log has absorbed.
const (
	compactMinRecords = 1024
	compactFactor     = 4
)

// Compact snapshots the database's live state (schemas in creation order,
// facts in ID order, next-ID watermark) into snapshot.log via an atomic
// tmp-fsync-rename, then truncates the mutation log. A no-op for an
// in-memory database. On a failure that leaves the log unable to append,
// the database degrades (data on disk stays consistent).
func (d *Database) Compact() error {
	if d.log == nil || d.degraded != nil {
		return nil
	}
	if err := d.log.snapshot(d.snapshotRecords()); err != nil {
		if d.log.w == nil {
			d.degrade(err)
		}
		return err
	}
	return nil
}

// maybeCompact runs Compact when the log has outgrown the live data. A
// compaction failure is not surfaced through the (already successful)
// mutation that triggered it: either the log survived and compaction will
// retry later, or it did not and the database just degraded — the next
// mutation reports that.
func (d *Database) maybeCompact() {
	if d.log == nil {
		return
	}
	live := len(d.facts) + len(d.order) + 1
	if d.log.records >= compactMinRecords && d.log.records > compactFactor*live {
		_ = d.Compact()
	}
}

// snapshotRecords materializes the database as snapshot records: the
// next-ID watermark (IDs are never reused, even across snapshots), every
// schema in creation order, every live fact in ID order.
func (d *Database) snapshotRecords() []logRecord {
	recs := make([]logRecord, 0, 1+len(d.order)+len(d.facts))
	recs = append(recs, logRecord{Op: "M", ID: d.nextID})
	for _, name := range d.order {
		rel := d.relations[name]
		recs = append(recs, logRecord{Op: "R", Rel: name, Cols: rel.Schema.Columns})
	}
	facts := make([]*Fact, 0, len(d.facts))
	for _, f := range d.facts {
		facts = append(facts, f)
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].ID < facts[j].ID })
	for _, f := range facts {
		recs = append(recs, insertRecord(f))
	}
	return recs
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// logRecord is one record of a persistent database's mutation log and
// snapshots. Payloads are single JSON lines (framed by wal.go), so logs
// stay greppable.
type logRecord struct {
	Op   string     `json:"op"` // "R" create relation, "I" insert, "D" delete, "M" next-ID watermark
	Rel  string     `json:"rel,omitempty"`
	Cols []string   `json:"cols,omitempty"`
	ID   FactID     `json:"id,omitempty"`
	Endo bool       `json:"endo,omitempty"`
	Vals []logValue `json:"vals,omitempty"`
}

// logValue is the log serialization of a Value.
type logValue struct {
	K uint8   `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
}

func insertRecord(f *Fact) logRecord {
	rec := logRecord{Op: "I", Rel: f.Relation, ID: f.ID, Endo: f.Endogenous, Vals: make([]logValue, len(f.Tuple))}
	for i, v := range f.Tuple {
		rec.Vals[i] = logValue{K: uint8(v.kind), I: v.i, F: v.f, S: v.s}
	}
	return rec
}

// tuple decodes the record's values, rejecting kinds no Value has.
func (rec logRecord) tuple() (Tuple, error) {
	vals := make(Tuple, len(rec.Vals))
	for i, lv := range rec.Vals {
		switch Kind(lv.K) {
		case KindInt:
			vals[i] = Int(lv.I)
		case KindString:
			vals[i] = String(lv.S)
		case KindFloat:
			vals[i] = Float(lv.F)
		default:
			return nil, fmt.Errorf("db: fact ID %d has a value of unknown kind %d", rec.ID, lv.K)
		}
	}
	return vals, nil
}

// Persisted reports whether dir holds a database persisted by a previous
// run, i.e. whether Open would restore any relations or facts from it.
func Persisted(dir string) bool {
	for _, name := range []string{snapName, logName} {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil && st.Size() > 0 {
			return true
		}
	}
	return false
}

// readWALRecords decodes the valid prefix of framed WAL data: frames up to
// the first invalid one (torn, corrupt, or undecodable) are returned along
// with the byte length of that prefix. It never fails — corruption
// shortens the prefix instead.
func readWALRecords(data []byte) (recs []logRecord, validLen int64) {
	for _, fr := range scanFrames(data) {
		var rec logRecord
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return recs, validLen
		}
		recs = append(recs, rec)
		validLen = fr.end
	}
	return recs, validLen
}

// legacyLog reports whether data is a pre-WAL JSONL mutation log (written
// by earlier versions of this package, one bare JSON object per line).
// Framed data cannot begin with `{"` — those bytes would be the low half
// of a frame length — so the first two bytes decide.
func legacyLog(data []byte) bool {
	return len(data) >= 2 && data[0] == '{' && data[1] == '"'
}

// readLegacyLog parses a pre-WAL JSONL mutation log. Unlike WAL recovery
// this is strict: the legacy format cannot distinguish a torn tail from
// corruption, so any undecodable record fails the load (the historical
// behavior).
func readLegacyLog(data []byte) ([]logRecord, error) {
	var out []logRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var rec logRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("db: legacy log record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// readStoreState loads a persisted directory's snapshot and log records,
// truncating any torn log suffix. legacy reports a pre-WAL JSONL log that
// the caller should compact into the new format after replay.
func readStoreState(dir string) (snapRecs, logRecs []logRecord, info RecoveryInfo, legacy bool, err error) {
	// A leftover snapshot.tmp is an interrupted compaction that never
	// reached its atomic rename; it holds nothing the log doesn't.
	os.Remove(filepath.Join(dir, snapTmpName))

	snapData, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, info, false, fmt.Errorf("db: snapshot: %w", err)
	}
	snapRecs, _ = readWALRecords(snapData)
	info.SnapshotRecords = len(snapRecs)

	logPath := filepath.Join(dir, logName)
	logData, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, info, false, fmt.Errorf("db: log: %w", err)
	}
	if legacyLog(logData) {
		logRecs, err := readLegacyLog(logData)
		if err != nil {
			return nil, nil, info, false, err
		}
		info.LogRecords = len(logRecs)
		return snapRecs, logRecs, info, true, nil
	}
	var validLen int64
	logRecs, validLen = readWALRecords(logData)
	info.LogRecords = len(logRecs)
	info.DroppedBytes = int64(len(logData)) - validLen
	if info.DroppedBytes > 0 {
		info.Truncated = true
		if err := os.Truncate(logPath, validLen); err != nil {
			return nil, nil, info, false, fmt.Errorf("db: truncating torn log suffix: %w", err)
		}
	}
	return snapRecs, logRecs, info, false, nil
}
