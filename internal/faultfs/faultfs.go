// Package faultfs injects scripted storage failures underneath a
// persistent database's write-ahead log. An Injector opens real files in a real
// directory but stops persisting bytes at a chosen crash offset: writes
// before the offset reach the disk, the write crossing it lands partially
// (a torn tail) or not at all, and everything afterwards fails. Abandoning
// the database (no Close) then reopening the directory reproduces exactly
// what a process crash at that offset would leave behind — which is what
// the crash-recovery property tests exercise.
//
// The model is deliberately pessimistic about ordering-friendly
// filesystems: all bytes up to the offset are durable, all bytes after it
// are lost. Sequential WAL appends make this the worst honest case — a
// real crash additionally loses unflushed page cache, which the tests
// cover by never closing the failed store (buffered bytes die with it).
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected is the failure surfaced by every faulted write and sync.
// Store code must treat it like any other disk error (ENOSPC, EIO).
var ErrInjected = errors.New("faultfs: injected write failure")

// Injector scripts failures across every file it opens. Byte accounting is
// global, not per file, so a crash offset can land inside the WAL, inside
// a snapshot being written, or between the two. The zero value (and New)
// passes everything through until armed.
type Injector struct {
	mu      sync.Mutex
	limit   int64 // byte budget; negative = unlimited
	sharp   bool  // failing write persists nothing instead of a torn prefix
	written int64
	tripped bool
}

// New returns a pass-through Injector; arm it with CrashAt or CrashAtSharp.
func New() *Injector { return &Injector{limit: -1} }

// CrashAt arms the injector to fail once cumulative written bytes would
// exceed offset. The crossing write persists its prefix up to the offset —
// a short write leaving a torn frame — and errors; later writes and syncs
// all fail.
func (in *Injector) CrashAt(offset int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.limit, in.sharp, in.tripped = offset, false, false
}

// CrashAtSharp is CrashAt with a clean edge: the crossing write persists
// nothing, so the file ends exactly at the last fully persisted write.
func (in *Injector) CrashAtSharp(offset int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.limit, in.sharp, in.tripped = offset, true, false
}

// Disarm returns the injector to pass-through (existing byte accounting is
// kept).
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.limit, in.tripped = -1, false
}

// Written returns the cumulative bytes persisted through this injector.
func (in *Injector) Written() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.written
}

// Tripped reports whether the crash offset has been hit.
func (in *Injector) Tripped() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.tripped
}

// Open opens path like os.OpenFile and wraps it with the injector's
// script. The signature matches the OpenFileFunc injection point of
// db.PersistConfig up to the concrete return type.
func (in *Injector) Open(path string, flag int, perm os.FileMode) (*File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &File{f: f, inj: in}, nil
}

// File is one injector-governed file.
type File struct {
	f   *os.File
	inj *Injector
}

// Write persists p subject to the injector's script: fully below the
// crash offset, partially (or not at all, for a sharp crash) on the write
// crossing it, and never after it has tripped.
func (fl *File) Write(p []byte) (int, error) {
	in := fl.inj
	in.mu.Lock()
	if in.tripped {
		in.mu.Unlock()
		return 0, fmt.Errorf("write %s after crash point: %w", fl.f.Name(), ErrInjected)
	}
	allow := len(p)
	trip := false
	if in.limit >= 0 && in.written+int64(len(p)) > in.limit {
		trip = true
		allow = int(in.limit - in.written)
		if in.sharp || allow < 0 {
			allow = 0
		}
	}
	in.mu.Unlock()

	n := 0
	var err error
	if allow > 0 {
		n, err = fl.f.Write(p[:allow])
	}

	in.mu.Lock()
	in.written += int64(n)
	if trip {
		in.tripped = true
	}
	in.mu.Unlock()

	if err != nil {
		return n, err
	}
	if trip {
		return n, fmt.Errorf("crash point at byte %d of %s: %w", in.written, fl.f.Name(), ErrInjected)
	}
	return n, nil
}

// Sync fsyncs the underlying file, failing once the injector has tripped
// (a crashed disk acknowledges nothing).
func (fl *File) Sync() error {
	fl.inj.mu.Lock()
	tripped := fl.inj.tripped
	fl.inj.mu.Unlock()
	if tripped {
		return fmt.Errorf("sync %s after crash point: %w", fl.f.Name(), ErrInjected)
	}
	return fl.f.Sync()
}

// Close closes the underlying file (always allowed: releasing a handle
// does not persist anything).
func (fl *File) Close() error { return fl.f.Close() }
