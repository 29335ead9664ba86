package dnnf

import (
	"container/list"
	"encoding/binary"
	"strconv"
	"sync"

	"repro/internal/cnf"
)

// CompileCache is a bounded, signature-keyed, cross-call LRU cache of
// compiled d-DNNF roots. Where the per-compilation component cache (see
// compiler.cache) only lives for one Compile call, a CompileCache is shared
// across calls — and across goroutines — so repeated explanations of shared
// lineage (the same output tuple re-explained, or distinct tuples whose
// provenance Tseytin-encodes to the same CNF) reuse the compiled circuit
// instead of recompiling it from scratch.
//
// Keys are, by default, the canonical (rename-invariant) clause-hypergraph
// signature — so distinct tuples whose provenance is isomorphic modulo
// variable renaming share one compilation, with the circuit relabeled to
// each caller's variables on a hit — extended with the compilation options
// and the formula's auxiliary-variable bookkeeping, so equal clause
// structure under different Tseytin bookkeeping never aliases. With
// Options.NoCanonicalCache the key degrades to the byte-identical formula
// signature. Values are immutable node DAGs; sharing them between concurrent
// readers is safe because Nodes are never mutated after construction.
type CompileCache struct {
	mu            sync.Mutex
	capacity      int
	order         *list.List // front = most recently used; values are *cacheEntry
	entries       map[string]*list.Element
	inflight      map[string]*sync.WaitGroup
	hits          int64
	misses        int64
	renamed       int64
	evictions     int64
	invalidations int64
}

type cacheEntry struct {
	key  string
	root *Node
	// nodes is the builder allocation count of the original compilation —
	// the same quantity Options.MaxNodes bounds — so budget checks on warm
	// hits reproduce the cold outcome instead of measuring the (smaller)
	// final DAG.
	nodes int
	// fromCanon maps canonical variable indices back to the variables of
	// the compilation that populated this entry; nil for byte-identical
	// (non-canonical) entries. A hit composes it with the caller's own
	// canonical map to relabel root into the caller's variable space.
	fromCanon map[int]int
	// support is the sorted set of original (non-auxiliary) variables —
	// fact IDs, for lineage compilations — of the compilation that
	// populated this entry. Invalidate uses it to evict only circuits
	// whose lineage actually mentions an updated fact.
	support []int
	// owner scopes support: fact IDs are only unique within one database,
	// so Invalidate matches an entry's support only when the owner tags
	// agree (Options.CacheOwner; 0 = untagged). Lookups never consult the
	// owner — canonical hits across databases stay shared.
	owner uint64
}

// DefaultCompileCacheSize is the capacity used when a knob asks for "a
// cache" without saying how big (CacheSize == 0 at the facade).
const DefaultCompileCacheSize = 256

// NewCompileCache returns an empty LRU cache holding at most capacity
// compiled circuits; capacity ≤ 0 is treated as DefaultCompileCacheSize.
func NewCompileCache(capacity int) *CompileCache {
	if capacity <= 0 {
		capacity = DefaultCompileCacheSize
	}
	return &CompileCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*sync.WaitGroup),
	}
}

// Grow raises the cache capacity to at least capacity (it never shrinks a
// live cache, so concurrent users keep their working sets).
func (c *CompileCache) Grow(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if capacity > c.capacity {
		c.capacity = capacity
	}
}

// Len returns the number of cached circuits.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time snapshot of a CompileCache's cumulative
// counters plus its current occupancy.
type CacheStats struct {
	// Hits and Misses count lookups; Hits = IdenticalHits + RenamedHits.
	Hits, Misses int64
	// IdenticalHits are hits whose formula matched the cached one
	// byte-for-byte (or keying was non-canonical); RenamedHits were served
	// through a nontrivial canonical relabeling.
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
func (c *CompileCache) Stats() CacheStats {
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

// Invalidate evicts every cached circuit populated under the given owner
// tag whose supporting fact set mentions any of the given variables (fact
// IDs) and returns how many entries were dropped. After a fact update, only
// compilations whose lineage actually involved the touched facts can be
// stale working set; entries populated from unrelated lineages — other
// owners' databases with colliding fact IDs, or renamed-isomorphic entries
// serving other fact-ID universes — survive.
func (c *CompileCache) Invalidate(owner uint64, vars ...int) int {
	if len(vars) == 0 {
		return 0
	}
	touched := make(map[int]bool, len(vars))
	for _, v := range vars {
		touched[v] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.owner == owner {
			for _, v := range e.support {
				if touched[v] {
					c.order.Remove(el)
					delete(c.entries, e.key)
					dropped++
					break
				}
			}
		}
		el = next
	}
	c.invalidations += int64(dropped)
	return dropped
}

// noteRenamed records that a hit required relabeling the cached circuit.
func (c *CompileCache) noteRenamed() {
	c.mu.Lock()
	c.renamed++
	c.mu.Unlock()
}

func (c *CompileCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *CompileCache) put(key string, root *Node, nodes int, fromCanon map[int]int, support []int, owner uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.root, e.nodes, e.fromCanon, e.support, e.owner = root, nodes, fromCanon, support, owner
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, root: root, nodes: nodes, fromCanon: fromCanon, support: support, owner: owner})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// acquire implements single-flight: the first caller for a missing key
// becomes the leader (leader == true) and must call release when done,
// success or failure; concurrent callers get leader == false and a wait
// function that blocks until the leader releases, after which they re-check
// the cache (and, if the leader failed, contend to become the next leader).
// A key that a leader stored between the caller's miss and this call also
// sends the caller back to re-check, so one formula is never compiled twice
// nor its entry overwritten while others read it.
func (c *CompileCache) acquire(key string) (leader bool, wait func()) {
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

func (c *CompileCache) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight[key].Done()
	delete(c.inflight, key)
}

// formulaSignature renders a formula byte-identically for cross-call cache
// lookups under Options.NoCanonicalCache: the clause-set key of the
// normalized clauses, then the auxiliary-variable markers. The "b:" tag
// keeps this keyspace disjoint from canonical signatures in a shared cache.
func formulaSignature(clauses []cnf.Clause, f *cnf.Formula, opts Options) string {
	buf := signatureHead("b:", cacheKey(clauses), opts)
	// Aux variables are assigned densely above the reserved range by the
	// Tseytin transformation; recording the boundary and count is enough to
	// distinguish bookkeeping without sorting the whole set.
	minAux, maxAux, numAux := 0, 0, 0
	for v := range f.Aux {
		if numAux == 0 || v < minAux {
			minAux = v
		}
		if v > maxAux {
			maxAux = v
		}
		numAux++
	}
	buf = strconv.AppendInt(buf, int64(minAux), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(maxAux), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(numAux), 10)
	return string(buf)
}

// signatureHead starts a cross-call cache key: the keyspace tag, the
// length-prefixed clause-set key (so nothing after it can be read as a
// clause), and the compilation-affecting options — branching order and
// component-cache ablation, since a hit must return a circuit compiled
// under the configuration the caller asked to measure.
func signatureHead(tag, clauseKey string, opts Options) []byte {
	buf := make([]byte, 0, len(tag)+binary.MaxVarintLen64+len(clauseKey)+32)
	buf = append(buf, tag...)
	buf = binary.AppendUvarint(buf, uint64(len(clauseKey)))
	buf = append(buf, clauseKey...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(opts.Order), 10)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, opts.DisableCache)
	return append(buf, '#')
}
