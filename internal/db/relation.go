package db

import (
	"encoding/binary"
	"iter"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultIndexBudget is the cap on distinct secondary indexes per relation.
// Each query shape touches at most one bound-position pattern per atom, so
// a handful covers every workload in the repository; the cap exists to
// bound memory under adversarial query diversity.
const DefaultIndexBudget = 8

// Relation is a set of facts sharing a schema: the facts in insertion
// order, plus secondary hash indexes built lazily per bound-positions
// access pattern and maintained incrementally under mutations.
//
// Reads (Scan, Lookup, Len) may run concurrently with each other, as the
// groundings of one database do; mutations are serialized against reads
// by the database's callers. A Lookup may build an index, so building is
// serialized by mu and an index is published only once it is complete,
// through an atomic pointer to a copy-on-write map: a lookup of an index
// that already exists takes no lock.
type Relation struct {
	Schema Schema
	facts  []*Fact
	// indexes maps a position signature (posSig) to its index.
	indexes atomic.Pointer[map[string]*hashIndex]
	mu      sync.Mutex
}

// hashIndex buckets a relation's facts by the key of their values at pos.
type hashIndex struct {
	pos     []int
	buckets map[Key][]*Fact
}

// add files f under its key, encoded into buf (scratch space, returned
// for reuse so indexing a slice of facts allocates only the keys).
func (ix *hashIndex) add(f *Fact, buf []byte) []byte {
	buf = AppendTupleKey(buf[:0], f.Tuple, ix.pos)
	k := Key(buf)
	ix.buckets[k] = append(ix.buckets[k], f)
	return buf
}

// Len returns the relation's fact count.
func (r *Relation) Len() int { return len(r.facts) }

// Facts returns the relation's facts as a new slice, in insertion order.
// Hot paths should prefer Scan or Lookup; Facts exists for tests, reports,
// and snapshot-style consumers.
func (r *Relation) Facts() []*Fact {
	return append(make([]*Fact, 0, len(r.facts)), r.facts...)
}

// Scan yields every fact of the relation in insertion order.
func (r *Relation) Scan() iter.Seq[*Fact] {
	return func(yield func(*Fact) bool) {
		for _, f := range r.facts {
			if !yield(f) {
				return
			}
		}
	}
}

// Lookup yields the facts whose tuple matches key at the given positions
// (pos ascending, key the TupleKey encoding of the sought values). It is
// served from the relation's index for the position pattern, built on
// first use, and falls back to a filtered scan once DefaultIndexBudget
// indexes exist.
func (r *Relation) Lookup(pos []int, key Key) iter.Seq[*Fact] {
	ix := r.index(pos)
	if ix == nil {
		return func(yield func(*Fact) bool) {
			var buf []byte
			for _, f := range r.facts {
				buf = AppendTupleKey(buf[:0], f.Tuple, pos)
				if Key(buf) == key && !yield(f) {
					return
				}
			}
		}
	}
	bucket := ix.buckets[key]
	return func(yield func(*Fact) bool) {
		for _, f := range bucket {
			if !yield(f) {
				return
			}
		}
	}
}

// loadIndexes returns the published index map (nil before the first build).
func (r *Relation) loadIndexes() map[string]*hashIndex {
	if m := r.indexes.Load(); m != nil {
		return *m
	}
	return nil
}

// index returns the relation's index on pos, building and publishing it
// when the budget allows. It returns nil when the budget is spent.
func (r *Relation) index(pos []int) *hashIndex {
	sig := posSig(pos)
	if ix := r.loadIndexes()[sig]; ix != nil {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.loadIndexes()
	if ix := old[sig]; ix != nil {
		return ix // built by a concurrent lookup while this one waited
	}
	if len(old) >= DefaultIndexBudget {
		return nil
	}
	ix := &hashIndex{pos: slices.Clone(pos), buckets: make(map[Key][]*Fact, len(r.facts))}
	var buf []byte
	for _, f := range r.facts {
		buf = ix.add(f, buf)
	}
	m := maps.Clone(old)
	if m == nil {
		m = make(map[string]*hashIndex, 1)
	}
	m[sig] = ix
	r.indexes.Store(&m)
	return ix
}

// insert adds f to the relation and to every index it has built.
func (r *Relation) insert(f *Fact) {
	r.facts = append(r.facts, f)
	var buf []byte
	for _, ix := range r.loadIndexes() {
		buf = ix.add(f, buf)
	}
}

// delete removes f from the relation and from every index it has built.
func (r *Relation) delete(f *Fact) {
	sameID := func(g *Fact) bool { return g.ID == f.ID }
	if i := slices.IndexFunc(r.facts, sameID); i >= 0 {
		r.facts = slices.Delete(r.facts, i, i+1)
	}
	var buf []byte
	for _, ix := range r.loadIndexes() {
		buf = AppendTupleKey(buf[:0], f.Tuple, ix.pos)
		k := Key(buf)
		bucket := ix.buckets[k]
		if i := slices.IndexFunc(bucket, sameID); i >= 0 {
			bucket = slices.Delete(bucket, i, i+1)
		}
		if len(bucket) == 0 {
			delete(ix.buckets, k)
		} else {
			ix.buckets[k] = bucket
		}
	}
}

// posSig is a canonical map key for a set of tuple positions (the
// bound-position signature of a secondary index): each position as a
// uvarint, so positions of any size stay distinct.
func posSig(pos []int) string {
	b := make([]byte, 0, len(pos))
	for _, p := range pos {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return string(b)
}
