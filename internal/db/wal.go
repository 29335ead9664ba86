package db

// Write-ahead-log framing for a persistent database's mutation log.
//
// Each record travels in a frame: a fixed 8-byte header — payload length
// and CRC32C (Castagnoli) of the payload, both little-endian uint32 —
// followed by the payload itself. Payloads remain the one-line JSON
// encodings of logRecord (newline included), so a WAL is still greppable
// even though it is no longer a plain JSONL file.
//
// The frame layer is what makes crash recovery possible: a torn write (a
// crash mid-append, a full disk truncating a frame, a corrupted page)
// shows up as an invalid frame — short header, impossible length, or a
// checksum mismatch — and recovery keeps the valid prefix instead of
// refusing the whole dataset. scanFrames stops at the FIRST invalid
// frame: everything before it is prefix-consistent (whole records, in
// order), everything after it is untrusted and dropped.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
)

// castagnoli is the CRC32C polynomial table checksumming WAL frames
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walHeaderSize is the fixed frame header: uint32 payload length followed
// by uint32 CRC32C of the payload, both little-endian.
const walHeaderSize = 8

// maxFramePayload bounds a single frame's payload. Log records are one
// JSON line each, far below this; a claimed length beyond it means the
// header bytes are garbage, not a huge record.
const maxFramePayload = 1 << 26 // 64 MiB

// WALFile is the subset of *os.File the WAL writer needs. It is an
// interface so tests can interpose scriptable failures between the
// database and the disk (see internal/faultfs).
type WALFile interface {
	io.Writer
	io.Closer
	// Sync flushes the file's written data to stable storage (fsync).
	Sync() error
}

// OpenFileFunc opens a WAL or snapshot file for writing. A persistent
// database uses os.OpenFile unless its PersistConfig injects another
// implementation (fault injection in tests).
type OpenFileFunc func(path string, flag int, perm os.FileMode) (WALFile, error)

// osOpenFile is the default OpenFileFunc.
func osOpenFile(path string, flag int, perm os.FileMode) (WALFile, error) {
	return os.OpenFile(path, flag, perm)
}

// SyncMode selects when the WAL is fsynced; see SyncPolicy.
type SyncMode uint8

const (
	// SyncEveryN (the default mode) flushes and fsyncs after every N
	// appended records (SyncPolicy.N; DefaultSyncEvery when ≤ 0). A crash
	// loses at most the last N-1 acknowledged mutations.
	SyncEveryN SyncMode = iota
	// SyncAlways fsyncs after every appended record: an acknowledged
	// mutation is durable before its caller learns it succeeded. This is
	// the policy under which recovery must never drop an acknowledged
	// write.
	SyncAlways
	// SyncOnClose buffers writes until Close (or an explicit snapshot),
	// trading durability of a crash window for mutation throughput. The
	// OS may still persist earlier pages on its own schedule.
	SyncOnClose
)

// DefaultSyncEvery is the SyncEveryN cadence used when a policy does not
// name one.
const DefaultSyncEvery = 1024

// SyncPolicy says when a persistent database's WAL is made durable. The zero
// value is SyncEveryN with the default cadence — the pre-WAL behavior
// (flush every ~1k mutations), hardened with an fsync.
type SyncPolicy struct {
	Mode SyncMode
	// N is the SyncEveryN cadence (≤ 0 = DefaultSyncEvery); ignored by the
	// other modes.
	N int
}

func (p SyncPolicy) every() int {
	if p.N <= 0 {
		return DefaultSyncEvery
	}
	return p.N
}

// Validate rejects policies no database accepts.
func (p SyncPolicy) Validate() error {
	switch p.Mode {
	case SyncEveryN, SyncAlways, SyncOnClose:
	default:
		return fmt.Errorf("db: unknown SyncMode %d", p.Mode)
	}
	if p.N < 0 {
		return fmt.Errorf("db: SyncPolicy.N is negative (%d); use 0 for the default cadence", p.N)
	}
	return nil
}

func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncOnClose:
		return "onclose"
	default:
		return fmt.Sprintf("every=%d", p.every())
	}
}

// ParseSyncPolicy parses the flag form of a SyncPolicy: "always",
// "onclose", or "every=N" ("every" alone uses the default cadence).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "every":
		return SyncPolicy{}, nil
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "onclose":
		return SyncPolicy{Mode: SyncOnClose}, nil
	}
	if rest, ok := strings.CutPrefix(s, "every="); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return SyncPolicy{}, fmt.Errorf("db: bad sync cadence %q (want every=N with N ≥ 1)", s)
		}
		return SyncPolicy{Mode: SyncEveryN, N: n}, nil
	}
	return SyncPolicy{}, fmt.Errorf("db: unknown sync policy %q (want always, onclose, or every=N)", s)
}

// appendFrame appends one framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// walFrame is one recovered frame: its payload and the byte offset just
// past it (so a caller keeping a prefix of frames knows where to truncate).
type walFrame struct {
	payload []byte
	end     int64
}

// scanFrames walks framed WAL data and returns the frames of the valid
// prefix. Scanning stops at the first invalid frame: a truncated header,
// a zero or absurd length, a payload running past EOF, or a checksum
// mismatch. Everything before the stop point is intact by construction
// (appends are sequential), everything after it is a torn or corrupt
// suffix the caller should drop.
func scanFrames(data []byte) []walFrame {
	var frames []walFrame
	off := 0
	for {
		if off+walHeaderSize > len(data) {
			return frames
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxFramePayload || off+walHeaderSize+n > len(data) {
			return frames
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return frames
		}
		off += walHeaderSize + n
		frames = append(frames, walFrame{payload: payload, end: int64(off)})
	}
}

// walWriter appends framed records to a WAL file under a SyncPolicy,
// buffering through bufio and propagating every write, flush, and sync
// failure to its caller — a full disk is an error the mutation path must
// see, not a panic and not a silent loss.
type walWriter struct {
	file     WALFile
	w        *bufio.Writer
	policy   SyncPolicy
	unsynced int // records appended since the last successful sync
	buf      []byte
}

func newWALWriter(f WALFile, policy SyncPolicy) *walWriter {
	return &walWriter{file: f, w: bufio.NewWriter(f), policy: policy}
}

// errWALClosed is returned by appends after the writer was closed (or its
// close failed): the log can no longer accept writes.
var errWALClosed = errors.New("db: WAL is closed")

// Append frames and writes one payload, then applies the sync policy.
// The record is only considered acknowledged if Append returns nil: under
// SyncAlways that means it is on stable storage; under SyncEveryN it is
// at worst N-1 records away from the last fsync.
func (w *walWriter) Append(payload []byte) error {
	if w.file == nil {
		return errWALClosed
	}
	w.buf = appendFrame(w.buf[:0], payload)
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("db: WAL append: %w", err)
	}
	w.unsynced++
	switch w.policy.Mode {
	case SyncAlways:
		return w.Sync()
	case SyncEveryN:
		if w.unsynced >= w.policy.every() {
			return w.Sync()
		}
	}
	return nil
}

// Sync flushes the buffer and fsyncs the file. The unsynced counter is
// reset only on success, so a failed flush keeps reporting the log as
// behind rather than pretending the data is safe.
func (w *walWriter) Sync() error {
	if w.file == nil {
		return errWALClosed
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("db: WAL flush: %w", err)
	}
	if err := w.file.Sync(); err != nil {
		return fmt.Errorf("db: WAL fsync: %w", err)
	}
	w.unsynced = 0
	return nil
}

// Close flushes, fsyncs, and closes the file, returning the first
// failure; the writer is unusable afterwards either way.
func (w *walWriter) Close() error {
	if w.file == nil {
		return nil
	}
	err := w.Sync()
	if cerr := w.file.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("db: WAL close: %w", cerr)
	}
	w.file, w.w = nil, nil
	return err
}

// RecoveryInfo reports what Open restored from a persisted
// directory and what, if anything, it had to drop.
type RecoveryInfo struct {
	// SnapshotRecords is the number of records loaded from the snapshot
	// (0 when the directory has no snapshot yet). Snapshots hold one
	// record per relation plus one per live fact plus a watermark, so
	// together with LogRecords this is the replay cost of the open.
	SnapshotRecords int
	// LogRecords is the number of valid WAL records replayed on top of
	// the snapshot.
	LogRecords int
	// DroppedBytes is the length of the torn or corrupt WAL suffix that
	// recovery truncated. Zero for a clean shutdown; a crash mid-append
	// typically leaves one partial frame here.
	DroppedBytes int64
	// Truncated reports whether a torn suffix was found (and the log file
	// truncated back to its valid prefix).
	Truncated bool
}
