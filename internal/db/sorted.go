package db

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
)

// sortedStore is the ordered backend: every relation keeps a primary B-tree
// over the sort-preserving encoding of the full tuple (fact-ID suffixed, so
// duplicate tuples coexist), and secondary B-trees are built lazily per
// (relation, bound-positions) access pattern, exactly like the memory
// backend's hash indexes but serving equality lookups as prefix range
// scans. With a directory, every mutation is appended to a checksummed
// write-ahead log (see wal.go) so the dataset survives the process — and
// survives the process dying mid-write: OpenSorted replays the snapshot
// plus the log's valid prefix and truncates any torn suffix.
type sortedStore struct {
	relations map[string]*sortedRelation
	budget    int

	// Persistence (nil/disabled when dir == "").
	dir      string
	sync     SyncPolicy
	openFile OpenFileFunc
	wal      *walWriter
	logging  bool
	// walRecords counts records in the live log file; compaction compares
	// it against the live fact count to decide when replay cost has
	// outgrown the data.
	walRecords int
}

type sortedRelation struct {
	primary btree
	indexes map[string]*sortedIndex
}

type sortedIndex struct {
	pos  []int
	tree btree
}

// On-disk layout of a persistent sorted store directory:
//
//	facts.log     framed WAL of mutations since the last snapshot
//	snapshot.log  framed snapshot: watermark + schemas + live facts
//	snapshot.tmp  in-progress snapshot (removed on open; never read)
const (
	logName     = "facts.log"
	snapName    = "snapshot.log"
	snapTmpName = "snapshot.tmp"
)

// SortedConfig configures a persistent sorted store beyond the directory:
// the WAL sync policy and (for fault-injection tests) the function used to
// open the WAL and snapshot files for writing.
type SortedConfig struct {
	Dir string
	// Sync is the WAL durability policy; the zero value is
	// SyncEveryN/DefaultSyncEvery.
	Sync SyncPolicy
	// OpenFile opens WAL and snapshot files for writing; nil means
	// os.OpenFile. Tests inject faultfs wrappers here.
	OpenFile OpenFileFunc
}

func (c SortedConfig) openFunc() OpenFileFunc {
	if c.OpenFile != nil {
		return c.OpenFile
	}
	return osOpenFile
}

// OpenSortedStore opens a sorted store with default configuration; see
// OpenSortedStoreConfig.
func OpenSortedStore(dir string) (Store, error) {
	return OpenSortedStoreConfig(SortedConfig{Dir: dir})
}

// OpenSortedStoreConfig opens a sorted store. With an empty Dir the store
// is ephemeral. With a directory, mutations are logged to Dir/facts.log;
// the directory is created if needed. A directory already holding
// persisted state is refused — reopen persisted datasets with OpenSorted,
// which replays snapshot and log into a Database before appending resumes.
func OpenSortedStoreConfig(cfg SortedConfig) (Store, error) {
	if err := cfg.Sync.Validate(); err != nil {
		return nil, err
	}
	s := &sortedStore{
		relations: make(map[string]*sortedRelation),
		budget:    DefaultIndexBudget,
		dir:       cfg.Dir,
		sync:      cfg.Sync,
		openFile:  cfg.openFunc(),
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: sorted store dir: %w", err)
	}
	if Persisted(cfg.Dir) {
		return nil, fmt.Errorf("db: sorted store at %s already holds data; use db.OpenSorted to reload it", cfg.Dir)
	}
	if err := s.openLog(0); err != nil {
		return nil, err
	}
	s.logging = true
	return s, nil
}

// openLog opens (creating if needed) the live WAL for appending. flag
// extras beyond create+write-only+append may be passed (O_TRUNC when
// rotating after a snapshot).
func (s *sortedStore) openLog(extraFlag int) error {
	f, err := s.openFile(filepath.Join(s.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|extraFlag, 0o644)
	if err != nil {
		return fmt.Errorf("db: sorted store log: %w", err)
	}
	s.wal = newWALWriter(f, s.sync)
	return nil
}

func (s *sortedStore) Backend() string { return BackendSorted }

func (s *sortedStore) CreateRelation(schema Schema) error {
	if _, ok := s.relations[schema.Name]; ok {
		return fmt.Errorf("db: relation %q already exists in store", schema.Name)
	}
	s.relations[schema.Name] = &sortedRelation{indexes: make(map[string]*sortedIndex)}
	if err := s.appendLog(logRecord{Op: "R", Rel: schema.Name, Cols: schema.Columns}); err != nil {
		// The schema was never made durable: undo so in-memory state equals
		// what a reopen would recover.
		delete(s.relations, schema.Name)
		return err
	}
	return nil
}

func (s *sortedStore) Insert(f *Fact) error {
	r := s.relations[f.Relation]
	if r == nil {
		return fmt.Errorf("db: %w %q", ErrUnknownRelation, f.Relation)
	}
	key := AppendFactID(AppendTupleKey(nil, f.Tuple, nil), f.ID)
	r.primary.insert(string(key), f)
	var buf []byte
	for _, ix := range r.indexes {
		buf = AppendFactID(AppendTupleKey(buf[:0], f.Tuple, ix.pos), f.ID)
		ix.tree.insert(string(buf), f)
	}
	if err := s.appendLog(insertRecord(f)); err != nil {
		// Roll the trees back: a mutation the log rejected was never
		// applied, so memory matches the durable state on disk.
		r.primary.delete(string(key))
		for _, ix := range r.indexes {
			buf = AppendFactID(AppendTupleKey(buf[:0], f.Tuple, ix.pos), f.ID)
			ix.tree.delete(string(buf))
		}
		return err
	}
	return nil
}

func (s *sortedStore) Delete(f *Fact) error {
	r := s.relations[f.Relation]
	if r == nil {
		return fmt.Errorf("db: %w %q", ErrUnknownRelation, f.Relation)
	}
	key := AppendFactID(AppendTupleKey(nil, f.Tuple, nil), f.ID)
	r.primary.delete(string(key))
	var buf []byte
	for _, ix := range r.indexes {
		buf = AppendFactID(AppendTupleKey(buf[:0], f.Tuple, ix.pos), f.ID)
		ix.tree.delete(string(buf))
	}
	if err := s.appendLog(logRecord{Op: "D", ID: f.ID}); err != nil {
		r.primary.insert(string(key), f)
		for _, ix := range r.indexes {
			buf = AppendFactID(AppendTupleKey(buf[:0], f.Tuple, ix.pos), f.ID)
			ix.tree.insert(string(buf), f)
		}
		return err
	}
	return nil
}

func (s *sortedStore) Scan(relation string) iter.Seq[*Fact] {
	r := s.relations[relation]
	return func(yield func(*Fact) bool) {
		if r == nil {
			return
		}
		r.primary.ascend("", func(it btreeItem) bool { return yield(it.fact) })
	}
}

func (s *sortedStore) Lookup(relation string, pos []int, key Key) iter.Seq[*Fact] {
	r := s.relations[relation]
	if r == nil {
		return func(func(*Fact) bool) {}
	}
	sig := posSig(pos)
	ix := r.indexes[sig]
	if ix == nil {
		if s.budget >= 0 && len(r.indexes) >= s.budget {
			// Budget exhausted: filtered primary scan.
			return func(yield func(*Fact) bool) {
				var buf []byte
				r.primary.ascend("", func(it btreeItem) bool {
					buf = AppendTupleKey(buf[:0], it.fact.Tuple, pos)
					if Key(buf) == key {
						return yield(it.fact)
					}
					return true
				})
			}
		}
		ix = &sortedIndex{pos: append([]int(nil), pos...)}
		var buf []byte
		r.primary.ascend("", func(it btreeItem) bool {
			buf = AppendFactID(AppendTupleKey(buf[:0], it.fact.Tuple, ix.pos), it.fact.ID)
			ix.tree.insert(string(buf), it.fact)
			return true
		})
		r.indexes[sig] = ix
	}
	// Value encodings are self-delimiting, so equality on the encoded
	// positions is exactly a prefix match on the index key.
	return func(yield func(*Fact) bool) {
		ix.tree.ascendPrefix(string(key), func(it btreeItem) bool { return yield(it.fact) })
	}
}

func (s *sortedStore) Len(relation string) int {
	r := s.relations[relation]
	if r == nil {
		return 0
	}
	return r.primary.len()
}

func (s *sortedStore) SetIndexBudget(n int) {
	switch {
	case n == 0:
		s.budget = DefaultIndexBudget
	case n < 0:
		s.budget = -1
	default:
		s.budget = n
	}
}

// Sync forces the WAL to stable storage regardless of the sync policy
// (no-op for ephemeral stores).
func (s *sortedStore) Sync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Close flushes, fsyncs, and closes the mutation log (no-op for ephemeral
// stores). The first failure is returned — a failed flush means the tail
// of the log never reached the disk, and callers must hear about it.
func (s *sortedStore) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal, s.logging = nil, false
	return err
}

// snapshot atomically replaces the store's durable state with the given
// records (a full image: watermark, schemas, live facts) and rotates the
// WAL so replay cost on the next open is proportional to live data, not to
// mutation history. The snapshot is crash-safe at every step: it is
// written to snapshot.tmp, fsynced, and renamed over snapshot.log; only
// then is the log truncated. A crash inside the rename→truncate window
// leaves a snapshot plus a stale log, which replay handles idempotently.
//
// On a post-rename failure the store can no longer append (wal == nil):
// the data is safe on disk but the store is effectively read-only, and the
// caller should degrade.
func (s *sortedStore) snapshot(recs []logRecord) error {
	if !s.logging {
		return nil
	}
	tmp := filepath.Join(s.dir, snapTmpName)
	f, err := s.openFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
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
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("db: snapshot rename: %w", err)
	}
	syncDir(s.dir)
	// The snapshot now owns every live fact; retire the log. Closing the
	// old writer first makes its buffered tail reach the file before the
	// truncating reopen discards it — harmless either way, since every
	// logged record is covered by the snapshot.
	cerr := s.wal.Close()
	s.wal = nil
	if err := s.openLog(os.O_TRUNC); err != nil {
		return err
	}
	s.walRecords = 0
	return cerr
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// logRecord is one record of the sorted store's mutation log and
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

func (rec logRecord) tuple() []Value {
	vals := make([]Value, len(rec.Vals))
	for i, lv := range rec.Vals {
		vals[i] = Value{kind: Kind(lv.K), i: lv.I, f: lv.F, s: lv.S}
	}
	return vals
}

// appendLog writes one record to the WAL under the store's sync policy.
// Errors propagate to the mutation that caused them — a full disk is a
// failed insert, not a dead process.
func (s *sortedStore) appendLog(rec logRecord) error {
	if !s.logging {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("db: sorted store log encode: %v", err)) // all fields are marshalable
	}
	if err := s.wal.Append(append(b, '\n')); err != nil {
		return err
	}
	s.walRecords++
	return nil
}

// Persisted reports whether dir holds sorted-store state from a previous
// run, i.e. whether OpenSorted would restore any relations or facts from it.
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
			return nil, fmt.Errorf("db: sorted store legacy log record %d: %w", len(out), err)
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
		return nil, nil, info, false, fmt.Errorf("db: sorted store snapshot: %w", err)
	}
	snapRecs, _ = readWALRecords(snapData)
	info.SnapshotRecords = len(snapRecs)

	logPath := filepath.Join(dir, logName)
	logData, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, info, false, fmt.Errorf("db: sorted store log: %w", err)
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
