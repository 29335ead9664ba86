package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Key identifies one pooled session: a registered dataset name and the
// normalized (parsed and re-rendered) query text.
type Key struct {
	Dataset string
	Query   string
}

// Pool is a keyed pool of warm repro.Sessions, the server's unit of state:
// one session per (database, query), so repeated explains of the same query
// hit the session's per-tuple artifact caches — and, through them, the
// process-wide compilation cache — end to end.
//
// The pool provides:
//
//   - bounded size with LRU eviction: the least recently used session is
//     Closed when capacity is exceeded (deferred until in-flight requests
//     release it);
//   - single-flight opening: concurrent first requests for one key ground
//     the query once, with the followers reusing the opened session;
//   - per-session serialized access (the Session's own contract) with
//     reader/writer coordination of the shared database: explains of
//     different queries over one database run concurrently, while update
//     batches get exclusive access (repro.Session synchronizes one
//     session's methods, not the Database shared between sessions);
//   - update coalescing: concurrent Update calls for one key merge their
//     mutation batches into a single Session.Apply — one lock acquisition,
//     one batched cache invalidation — instead of queueing N applications.
type Pool struct {
	capacity int
	open     func(context.Context, Key) (*repro.Session, error)
	// dbLock returns the reader/writer lock guarding the key's database.
	// Explains hold it read; update application holds it write.
	dbLock func(dataset string) *sync.RWMutex

	mu      sync.Mutex
	entries map[Key]*list.Element // values are *entry
	lru     *list.List            // front = most recently used
	opening map[Key]*openCall

	opens, reuses, evictions                        int64
	updateRequests, updateBatches, coalescedBatches int64

	// testHookExplain, when set, runs inside Explain while the session is
	// acquired (refcount raised, release deferred). Tests use it to panic
	// mid-request and assert the refcount still releases.
	testHookExplain func()
}

// DefaultPoolSize bounds the pool when the configuration does not.
const DefaultPoolSize = 8

// NewPool returns an empty pool. open is called (outside the pool lock,
// under the dataset's read lock, with the context of the request that missed)
// to ground a session for a missing key;
// dbLock maps a dataset name to the reader/writer lock serializing its
// database's writers against all of its sessions' readers.
func NewPool(capacity int, open func(context.Context, Key) (*repro.Session, error), dbLock func(string) *sync.RWMutex) *Pool {
	if capacity <= 0 {
		capacity = DefaultPoolSize
	}
	return &Pool{
		capacity: capacity,
		open:     open,
		dbLock:   dbLock,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		opening:  make(map[Key]*openCall),
	}
}

// entry is one pooled session plus its refcount and update batcher.
type entry struct {
	key  Key
	sess *repro.Session

	// refs counts in-flight requests using the session; evicted entries are
	// closed when the last reference is released (guarded by Pool.mu).
	refs    int
	evicted bool

	// Update batcher: pending requests accumulate under bmu while a leader
	// applies the previous batch; the leader drains pending in batches
	// until none remain.
	bmu      sync.Mutex
	pending  []*updateCall
	applying bool
}

type updateCall struct {
	muts []repro.Mutation
	done chan struct{}
	// Results, valid after done is closed.
	facts   []*repro.Fact
	batched int // requests coalesced into the application that covered this call
	err     error
}

type openCall struct {
	done chan struct{}
	err  error
}

// acquire returns the pooled entry for key with its refcount raised,
// opening (and possibly evicting) under single-flight if absent. The opener
// grounds under ctx, so a cold open is traced by the request that paid for it.
func (p *Pool) acquire(ctx context.Context, key Key) (*entry, error) {
	for {
		p.mu.Lock()
		if el, ok := p.entries[key]; ok {
			e := el.Value.(*entry)
			p.lru.MoveToFront(el)
			e.refs++
			p.reuses++
			p.mu.Unlock()
			return e, nil
		}
		if oc, ok := p.opening[key]; ok {
			p.mu.Unlock()
			<-oc.done
			if oc.err != nil {
				return nil, oc.err
			}
			continue // re-check: the leader installed the entry (or it was already evicted)
		}
		oc := &openCall{done: make(chan struct{})}
		p.opening[key] = oc
		p.mu.Unlock()

		// dbLock is nil for a dataset the server never registered; open then
		// fails with the unknown-dataset error, no locking needed.
		lock := p.dbLock(key.Dataset)
		if lock != nil {
			lock.RLock()
		}
		sess, err := p.open(ctx, key)
		if lock != nil {
			lock.RUnlock()
		}

		p.mu.Lock()
		delete(p.opening, key)
		if err != nil {
			p.mu.Unlock()
			oc.err = err
			close(oc.done)
			return nil, err
		}
		e := &entry{key: key, sess: sess, refs: 1}
		p.entries[key] = p.lru.PushFront(e)
		p.opens++
		toClose := p.evictOverCapacityLocked(e)
		p.mu.Unlock()
		close(oc.done)
		for _, s := range toClose {
			s.Close()
		}
		return e, nil
	}
}

// evictOverCapacityLocked trims the LRU past capacity, never evicting keep
// (the entry just inserted). Entries still referenced are marked and closed
// on final release; the rest are returned for closing outside the lock.
func (p *Pool) evictOverCapacityLocked(keep *entry) []*repro.Session {
	var toClose []*repro.Session
	for p.lru.Len() > p.capacity {
		back := p.lru.Back()
		v := back.Value.(*entry)
		if v == keep {
			break
		}
		p.lru.Remove(back)
		delete(p.entries, v.key)
		v.evicted = true
		p.evictions++
		if v.refs == 0 {
			toClose = append(toClose, v.sess)
		}
	}
	return toClose
}

func (p *Pool) release(e *entry) {
	p.mu.Lock()
	e.refs--
	closeNow := e.evicted && e.refs == 0
	p.mu.Unlock()
	if closeNow {
		e.sess.Close()
	}
}

// Explain serves one explain request from the key's pooled session under the
// request's effective budget (the server's configured budget overlaid with
// the request's knobs), holding the dataset's read lock for the duration
// (explains of other queries over the same database proceed concurrently;
// update application excludes them).
func (p *Pool) Explain(ctx context.Context, key Key, budget repro.ExplainBudget) ([]repro.TupleExplanation, error) {
	// The acquire span covers pool acquisition (including a cold session
	// open's "ground" span) and the dataset read-lock wait — the queueing
	// portion of a pooled explain's latency.
	actx, sp := trace.Start(ctx, "acquire")
	e, err := p.acquire(actx, key)
	if err != nil {
		sp.Set("error", err.Error())
		sp.End()
		return nil, err
	}
	defer p.release(e)
	if p.testHookExplain != nil {
		p.testHookExplain()
	}
	lock := p.dbLock(key.Dataset)
	lock.RLock()
	sp.End()
	defer lock.RUnlock()
	return e.sess.ExplainWithBudget(ctx, budget)
}

// inFlight sums the refcounts of every pooled entry — the number of
// requests currently holding a session. A quiesced pool reports zero even
// after handlers panicked mid-request (release is deferred, so it runs as
// the panic unwinds).
func (p *Pool) inFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for el := p.lru.Front(); el != nil; el = el.Next() {
		n += el.Value.(*entry).refs
	}
	return n
}

// Update routes one mutation batch through the key's pooled session,
// coalescing it with concurrent batches for the same key: whichever request
// finds no application in flight becomes the leader and applies every
// pending request's mutations in one Session.Apply under the database's
// write lock; the others wait for their portion's results. Returns the
// per-mutation results (aligned with muts, as Session.Apply) and how many
// requests the covering application coalesced.
//
// Failure attribution is per request: Session.Apply stops at the first
// failing mutation (leaving the session consistent) and names its index, so
// the coalesced request owning it observes the error, requests whose
// mutations were all applied before it succeed, and requests the
// application never reached are requeued into the next batch — one client's
// bad mutation never fails its neighbors. Within one request, Apply's
// documented non-transactional semantics hold: a failing request may have
// had a prefix of its own mutations applied.
// The context traces the caller's spans (batch application is not
// cancellable mid-batch); a follower's mutations may be applied under the
// leader's context, so a coalesced request's delta spans can land in the
// leader's trace rather than its own.
func (p *Pool) Update(ctx context.Context, key Key, muts []repro.Mutation) ([]*repro.Fact, int, error) {
	e, err := p.acquire(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	defer p.release(e)

	p.mu.Lock()
	p.updateRequests++
	p.mu.Unlock()

	call := &updateCall{muts: muts, done: make(chan struct{})}
	e.bmu.Lock()
	e.pending = append(e.pending, call)
	if e.applying {
		// A leader is mid-application; it will pick this call up in its
		// next batch.
		e.bmu.Unlock()
		<-call.done
		return call.facts, call.batched, call.err
	}
	e.applying = true
	for len(e.pending) > 0 {
		batch := e.pending
		e.pending = nil
		e.bmu.Unlock()
		requeue := p.applyBatch(ctx, e, batch)
		e.bmu.Lock()
		e.pending = append(requeue, e.pending...)
	}
	e.applying = false
	e.bmu.Unlock()
	<-call.done
	return call.facts, call.batched, call.err
}

// applyBatch concatenates the batch's mutations, applies them in one
// Session.Apply under the database write lock, and distributes each call's
// slice of the results. On failure, the call owning the failing mutation
// gets the error, calls fully applied before it succeed, and calls the
// application never reached are returned for requeueing (their done channel
// stays open). Each applyBatch resolves at least one call, so the leader's
// drain loop always terminates.
func (p *Pool) applyBatch(ctx context.Context, e *entry, batch []*updateCall) (requeue []*updateCall) {
	var all []repro.Mutation
	for _, c := range batch {
		all = append(all, c.muts...)
	}
	lock := p.dbLock(e.key.Dataset)
	lock.Lock()
	facts, err := e.sess.ApplyContext(ctx, all)
	lock.Unlock()
	if facts == nil {
		// Apply failed before touching any mutation (closed session, failed
		// re-ground): every call observes the error below.
		facts = make([]*repro.Fact, len(all))
	}

	p.mu.Lock()
	p.updateBatches++
	if len(batch) > 1 {
		p.coalescedBatches++
	}
	p.mu.Unlock()

	// failAt is the failing mutation's index in the concatenated batch:
	// len(all) on success (nothing failed), -1 for a batch-wide failure
	// that applied nothing (closed session, re-ground error).
	failAt := len(all)
	if err != nil {
		failAt = -1
		var me *repro.MutationError
		if errors.As(err, &me) {
			failAt = me.Index
		}
	}
	off := 0
	for _, c := range batch {
		end := off + len(c.muts)
		switch {
		case end <= failAt:
			c.err = nil // every mutation of this call was applied
		case failAt == -1 || failAt >= off:
			c.err = err // batch-wide failure, or this call owns the failing mutation
		default:
			// Entirely after the failing mutation: never applied; requeue.
			requeue = append(requeue, c)
			off = end
			continue
		}
		c.facts = facts[off:end]
		c.batched = len(batch)
		off = end
		close(c.done)
	}
	return requeue
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() wire.PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return wire.PoolStats{
		Opens:            p.opens,
		Reuses:           p.reuses,
		Evictions:        p.evictions,
		Sessions:         p.lru.Len(),
		Capacity:         p.capacity,
		UpdateRequests:   p.updateRequests,
		UpdateBatches:    p.updateBatches,
		CoalescedBatches: p.coalescedBatches,
	}
}

// Close evicts and closes every pooled session. Sessions still referenced
// by in-flight requests are closed when released; the pool stays usable
// (subsequent requests reopen sessions), so Close doubles as a flush.
func (p *Pool) Close() {
	p.mu.Lock()
	var toClose []*repro.Session
	for el := p.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		e.evicted = true
		p.evictions++
		if e.refs == 0 {
			toClose = append(toClose, e.sess)
		}
	}
	p.lru.Init()
	p.entries = make(map[Key]*list.Element)
	p.mu.Unlock()
	for _, s := range toClose {
		s.Close()
	}
}
