package core

import (
	"container/list"
	"context"
	"math/big"
	"slices"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/db"
	"repro/internal/dnnf"
)

// ValueCache is a bounded, cross-call LRU cache of exact Shapley values,
// shared across pipeline invocations and goroutines. Entries are keyed by
// dnnf.CacheKey of a lineage's Tseytin CNF, its canonical (rename-invariant)
// form, and hold the values of the CNF's fact variables in key order.
// Distinct tuples whose provenance encodes to the same CNF up to a renaming
// of facts, the common shape of multi-tuple query answers, then pay for one
// compilation and one run of Algorithm 1: a hit copies the stored values
// onto the caller's facts along key order.
//
// This is exact because Shapley values depend only on the Boolean function
// over the facts (a null player gets 0 and moves no one else), and equal
// keys fix that function up to the renaming. An entry also records the node
// count that its compile's budget checks saw, so an identical hit fails a
// node budget exactly where that compile would have; a renamed hit under a
// node budget compiles the caller's CNF to decide (ExplainCircuit).
type ValueCache struct {
	mu            sync.Mutex
	capacity      int
	order         *list.List // front = most recently used; values are *valueEntry
	entries       map[string]*list.Element
	inflight      map[string]*sync.WaitGroup
	hits          int64
	misses        int64
	renamed       int64
	evictions     int64
	invalidations int64
}

// valueEntry is immutable once stored; put replaces, never mutates.
type valueEntry struct {
	key string
	// values are the exact Shapley values of the CNF's fact variables in
	// key order; callers get copies.
	values []*big.Rat
	// facts are the fact IDs of the compile that filled the entry, in key
	// order: Invalidate's support, and what tells an identical hit from a
	// renamed one.
	facts []int
	// nodes is the node count at that compile's last budget check
	// (dnnf.Stats.CheckedNodes), the count CompileMaxNodes gates on, and
	// size the node count of its reduced circuit (PipelineResult.DNNFSize).
	nodes, size int
	// owner scopes facts: fact IDs are only unique within one database, so
	// Invalidate matches an entry's facts only when the owner tags agree
	// (PipelineOptions.CacheOwner; 0 = untagged). Lookups never consult the
	// owner — canonical hits across databases stay shared.
	owner uint64
}

// DefaultCacheSize is the capacity used when a knob asks for "a cache"
// without saying how big (CacheSize == 0 at the facade).
const DefaultCacheSize = 256

// Value-cache outcomes, as PipelineResult.Cache and the compile span's
// "cache" attribute name them.
const (
	// CacheMiss: the values were computed, and stored on success.
	CacheMiss = "miss"
	// CacheIdentical: a hit on an entry filled under the same facts.
	CacheIdentical = "identical"
	// CacheRenamed: a hit on an entry filled under a renaming of the facts.
	CacheRenamed = "renamed"
)

// NewValueCache returns an empty LRU cache holding at most capacity
// entries; capacity ≤ 0 is treated as DefaultCacheSize.
func NewValueCache(capacity int) *ValueCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &ValueCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*sync.WaitGroup),
	}
}

// Grow raises the cache capacity to at least capacity (it never shrinks a
// live cache, so concurrent users keep their working sets).
func (c *ValueCache) Grow(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if capacity > c.capacity {
		c.capacity = capacity
	}
}

// Len returns the number of cached entries.
func (c *ValueCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time snapshot of a ValueCache's cumulative
// counters plus its current occupancy.
type CacheStats struct {
	// Hits and Misses count lookups; Hits = IdenticalHits + RenamedHits.
	Hits, Misses int64
	// IdenticalHits are hits on an entry filled under the caller's own
	// facts; RenamedHits were served through a nontrivial renaming.
	IdenticalHits, RenamedHits int64
	// Evictions counts entries displaced by the LRU capacity bound.
	Evictions int64
	// Invalidations counts entries dropped by Invalidate (fact updates).
	Invalidations int64
	// Len and Capacity describe current occupancy.
	Len, Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 for an untouched cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Sub returns the counter deltas s − o (occupancy fields are kept from s),
// for per-query or per-phase reporting from two snapshots.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		IdenticalHits: s.IdenticalHits - o.IdenticalHits,
		RenamedHits:   s.RenamedHits - o.RenamedHits,
		Evictions:     s.Evictions - o.Evictions,
		Invalidations: s.Invalidations - o.Invalidations,
		Len:           s.Len,
		Capacity:      s.Capacity,
	}
}

// Stats returns a snapshot of the cache's hit/miss/eviction counters.
func (c *ValueCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		IdenticalHits: c.hits - c.renamed,
		RenamedHits:   c.renamed,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Len:           c.order.Len(),
		Capacity:      c.capacity,
	}
}

// Invalidate evicts every entry filled under the given owner tag whose
// facts include any of the given fact IDs and returns how many entries were
// dropped. After a fact update, only entries whose lineage actually involved
// the touched facts can be stale working set; entries filled from unrelated
// lineages — other owners' databases with colliding fact IDs, or
// renamed-isomorphic entries serving other fact-ID universes — survive.
func (c *ValueCache) Invalidate(owner uint64, facts ...int) int {
	if len(facts) == 0 {
		return 0
	}
	touched := make(map[int]bool, len(facts))
	for _, v := range facts {
		touched[v] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*valueEntry)
		if e.owner == owner && slices.ContainsFunc(e.facts, func(v int) bool { return touched[v] }) {
			c.order.Remove(el)
			delete(c.entries, e.key)
			dropped++
		}
		el = next
	}
	c.invalidations += int64(dropped)
	return dropped
}

// slot is one CNF's place in the cache: its key, its fact variables in key
// order, and on a hit the entry.
type slot struct {
	key   string
	facts []int
	entry *valueEntry
	kind  string // CacheMiss, CacheIdentical or CacheRenamed
}

// lookup keys formula and serves it from the cache, or makes the caller the
// key's single-flight leader, which must release the key when done and put
// its values first on success. Waiters of a failed leader contend to lead
// the next attempt, so duplicate formulas computed concurrently still pay
// for one computation. The canonical labeling honors ctx and the compile
// stage's budget, failing with dnnf.ErrTimeout past opts.CompileTimeout.
func (c *ValueCache) lookup(ctx context.Context, formula *cnf.Formula, opts PipelineOptions) (slot, error) {
	var deadline time.Time
	if opts.CompileTimeout > 0 {
		deadline = time.Now().Add(opts.CompileTimeout)
	}
	key, facts, err := dnnf.CacheKey(formula, func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return dnnf.ErrTimeout
		}
		return nil
	})
	if err != nil {
		return slot{}, err
	}
	sl := slot{key: key, facts: facts}
	for {
		if sl.entry, sl.kind = c.get(key, facts); sl.entry != nil {
			return sl, nil
		}
		leader, wait := c.acquire(key)
		if leader {
			return sl, nil
		}
		wait()
	}
}

// values copies a hit's values onto the caller's facts, with an exact 0 for
// every fact of endo absent from the CNF (a null player), as
// ShapleyAllStrategy gives it.
func (sl slot) values(endo []db.FactID) Values {
	out := make(Values, len(endo))
	for i, v := range sl.facts {
		out[db.FactID(v)] = new(big.Rat).Set(sl.entry.values[i])
	}
	for _, f := range endo {
		if out[f] == nil {
			out[f] = new(big.Rat)
		}
	}
	return out
}

func (c *ValueCache) get(key string, facts []int) (*valueEntry, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.misses++
		return nil, CacheMiss
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*valueEntry)
	if !slices.Equal(e.facts, facts) {
		c.renamed++
		return e, CacheRenamed
	}
	return e, CacheIdentical
}

// put stores copies of the values of sl's facts, computed by a compile that
// checked nodes against its node budget and reduced to size nodes. A fact
// without a value (one the caller left out of endo) stores nothing.
func (c *ValueCache) put(sl slot, values Values, nodes, size int, owner uint64) {
	e := &valueEntry{key: sl.key, values: make([]*big.Rat, len(sl.facts)), facts: sl.facts, nodes: nodes, size: size, owner: owner}
	for i, v := range sl.facts {
		r := values[db.FactID(v)]
		if r == nil {
			return
		}
		e.values[i] = new(big.Rat).Set(r)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[sl.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[sl.key] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*valueEntry).key)
		c.evictions++
	}
}

// acquire implements single-flight: the first caller for a missing key
// becomes the leader (leader == true) and must call release when done,
// success or failure; concurrent callers get leader == false and a wait
// function that blocks until the leader releases, after which they re-check
// the cache (and, if the leader failed, contend to become the next leader).
// A key that a leader stored between the caller's miss and this call also
// sends the caller back to re-check, so one formula is never computed twice
// nor its entry overwritten while others read it.
func (c *ValueCache) acquire(key string) (leader bool, wait func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wg, ok := c.inflight[key]; ok {
		return false, wg.Wait
	}
	if _, ok := c.entries[key]; ok {
		return false, func() {}
	}
	wg := new(sync.WaitGroup)
	wg.Add(1)
	c.inflight[key] = wg
	return true, nil
}

func (c *ValueCache) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight[key].Done()
	delete(c.inflight, key)
}
