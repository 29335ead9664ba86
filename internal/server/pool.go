package server

import (
	"container/list"
	"context"
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
// hit the session's per-tuple explanations — and, through them, the
// process-wide value cache — end to end.
//
// The pool provides:
//
//   - bounded size with LRU eviction: the least recently used session is
//     Closed when capacity is exceeded (deferred until in-flight requests
//     release it);
//   - single-flight opening: concurrent first requests for one key ground
//     the query once, with the followers reusing the opened session;
//   - parse-free lookup: Lookup finds a session from the raw query text a
//     request sent when that text is the session's normalized text, so a
//     warm request from a client sending normalized text skips the parser;
//   - per-session serialized access (the Session's own contract) with
//     reader/writer coordination of the shared database: explains of
//     different queries over one database run concurrently, while the
//     server's updates, applied straight to the database, get exclusive
//     access (repro.Session synchronizes one session's methods, not the
//     Database shared between sessions).
//
// Updates do not pass through the pool: each session catches up from the
// database's mutation feed inside its next explain.
type Pool struct {
	capacity int
	open     func(context.Context, Key) (*repro.Session, error)
	// dbLock returns the reader/writer lock guarding the key's database.
	// Explains hold it read; updates hold it write.
	dbLock func(dataset string) *sync.RWMutex

	mu      sync.Mutex
	entries map[Key]*list.Element // values are *entry
	lru     *list.List            // front = most recently used
	opening map[Key]*openCall

	opens, reuses, evictions int64

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

// entry is one pooled session plus its refcount.
type entry struct {
	key  Key
	sess *repro.Session

	// refs counts in-flight requests using the session; evicted entries are
	// closed when the last reference is released (guarded by Pool.mu).
	refs    int
	evicted bool
}

type openCall struct {
	done chan struct{}
	err  error
}

// Lookup reports whether the pool holds a session for the raw query text
// over dataset, keyed as the text reads. Only a normalized text (a parsed
// query's String) keys a session, so a text Lookup finds needs no parse,
// and any other text must be parsed to find its key.
func (p *Pool) Lookup(dataset, raw string) (Key, bool) {
	k := Key{Dataset: dataset, Query: raw}
	p.mu.Lock()
	_, ok := p.entries[k]
	p.mu.Unlock()
	return k, ok
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
// updates exclude them). The session first catches up with the updates
// applied since its last explain. render runs on the explanations before
// the lock is released, so their fact content is read from the state they
// were computed on; its error is Explain's.
func (p *Pool) Explain(ctx context.Context, key Key, budget repro.ExplainBudget, render func([]repro.TupleExplanation) error) ([]repro.TupleExplanation, error) {
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
	es, err := e.sess.ExplainWithBudget(ctx, budget)
	if err != nil {
		return nil, err
	}
	if err := render(es); err != nil {
		return nil, err
	}
	return es, nil
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

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() wire.PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return wire.PoolStats{
		Opens:     p.opens,
		Reuses:    p.reuses,
		Evictions: p.evictions,
		Sessions:  p.lru.Len(),
		Capacity:  p.capacity,
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
