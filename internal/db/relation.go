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

// hashIndex buckets a relation's facts by the Key of their values at pos.
type hashIndex struct {
	pos     []int
	buckets map[string][]*Fact
}

// add files f under its key, encoded into buf (scratch space, returned
// for reuse so indexing a slice of facts allocates only the keys).
func (ix *hashIndex) add(f *Fact, buf []byte) []byte {
	buf = f.Tuple.appendKey(buf[:0], ix.pos)
	k := string(buf)
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
func (r *Relation) Scan() iter.Seq[*Fact] { return slices.Values(r.facts) }

// Lookup yields the facts whose values at the given positions (pos
// ascending) are Equal to vals, so an int matches an Equal float. It is
// served from the relation's index for the position pattern, built on
// first use, and falls back to a filtered scan once DefaultIndexBudget
// indexes exist.
func (r *Relation) Lookup(pos []int, vals []Value) iter.Seq[*Fact] {
	// Small enough to inline, so a range over a lookup allocates nothing.
	return func(yield func(*Fact) bool) { r.lookup(pos, vals, yield) }
}

// lookup is Lookup's loop: over the bucket of vals' key, or, once the
// budget is spent, over every fact, keeping those Equal to vals.
func (r *Relation) lookup(pos []int, vals []Value, yield func(*Fact) bool) {
	facts, scan := r.facts, true
	if ix := r.index(pos); ix != nil {
		var buf [64]byte // vals' key, encoded on the stack
		facts, scan = ix.buckets[string(Tuple(vals).appendKey(buf[:0], nil))], false
	}
	for _, f := range facts {
		equal := func(p int, v Value) bool { return f.Tuple[p].Equal(v) }
		if (!scan || slices.EqualFunc(pos, vals, equal)) && !yield(f) {
			return
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
// when the budget allows. It returns nil when the budget is spent; the
// published map only grows, so a lookup past the budget returns without
// taking the lock or allocating.
func (r *Relation) index(pos []int) *hashIndex {
	var sb [16]byte
	published := r.loadIndexes()
	if ix := published[string(appendPosSig(sb[:0], pos))]; ix != nil {
		return ix
	}
	if len(published) >= DefaultIndexBudget {
		return nil
	}
	sig := string(appendPosSig(sb[:0], pos))
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.loadIndexes()
	if ix := old[sig]; ix != nil {
		return ix // built by a concurrent lookup while this one waited
	}
	if len(old) >= DefaultIndexBudget {
		return nil
	}
	ix := &hashIndex{pos: slices.Clone(pos), buckets: make(map[string][]*Fact, len(r.facts))}
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
		buf = f.Tuple.appendKey(buf[:0], ix.pos)
		k := string(buf)
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

// appendPosSig appends a canonical map key for a set of tuple positions
// (the bound-position signature of a secondary index) to dst: each
// position as a uvarint, so positions of any size stay distinct.
func appendPosSig(dst []byte, pos []int) []byte {
	for _, p := range pos {
		dst = binary.AppendUvarint(dst, uint64(p))
	}
	return dst
}
