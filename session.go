package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// ErrSessionClosed is returned by every method of a closed Session.
var ErrSessionClosed = errors.New("repro: session is closed")

// Session is a long-lived explanation engine over one database and one
// query, built for the paper's interactive workload: an analyst asks "why
// this tuple?" repeatedly against a database that changes between
// questions. Where the one-shot Explain re-grounds the query, rebuilds
// lineage, and explains every tuple from scratch on every call, a Session
// grounds once at Open and then delta-maintains its answers under updates.
//
// Every write goes to the database, whoever makes it: Session.Apply, Insert
// and Delete, the package-level Apply, or Database.Insert/Delete directly.
// The database keeps a bounded feed of the mutations it applied, and each
// session call first replays the entries past the epoch the session last
// saw:
//
//   - an insert delta-joins only the bindings involving the new fact
//     (engine.EvalDelta) and splices the new derivations into the affected
//     answers' lineage;
//   - a delete drops exactly the derivations supported by the removed fact
//     via a fact→derivation index; the value-cache entries whose lineage
//     mentions a deleted endogenous fact are evicted once per catch-up;
//   - Explain recomputes only the tuples whose lineage epoch advanced —
//     each tuple's finished explanation is cached per lineage epoch and
//     reused verbatim while the tuple's provenance is unchanged, together
//     with its last rendering (see TupleExplanation.Rendering).
//
// Only a session that fell further behind than the feed reaches re-grounds
// from scratch. After any update sequence, Explain returns exactly what a
// cold Explain on the mutated database would: the same tuples, methods,
// rankings, and big.Rat-identical Shapley values.
//
// # Concurrency contract
//
// A Session is safe for concurrent use: Explain, Insert, Delete, Apply,
// NumAnswers, Stats, and Close may all be called from multiple
// goroutines at once. Methods serialize on an internal lock — at most one
// of them mutates or reads session state at a time — while the per-tuple
// explanation work inside one Explain call still fans out across
// Options.Workers goroutines. Concurrent calls are applied in some
// serialization order, and every call observes a state reachable by a
// serial execution of the same calls; results are big.Rat-identical to
// that serial execution (see TestSessionConcurrentHammerMatchesSerial).
// Returned explanations share cached Shapley value maps and rendering memos
// across calls and must be treated as read-only.
//
// The contract covers one session's methods. The underlying Database is
// NOT itself synchronized: callers that share one Database across several
// sessions (or write to it directly) must serialize database writes
// against all sessions' calls themselves — internal/server does this with
// a per-database reader/writer lock.
type Session struct {
	mu     sync.Mutex
	d      *Database
	q      *Query
	opts   Options
	inc    *engine.Incremental
	cache  *core.ValueCache
	epoch  uint64 // db.Epoch() the session state reflects
	tuples map[string]*sessionTuple
	// calls stamps each explain's live entries (sessionTuple.seen), so the
	// entries of tuples that left the answer are found without a set.
	calls  uint64
	closed bool

	// Background exact-upgrade machinery (see ExplainWithBudget): a tuple
	// answered approximately keeps its lineage, and one bounded background
	// slot opportunistically finishes the exact computation so subsequent
	// explains of the tuple serve exact values. bgCtx is cancelled at Close,
	// aborting any in-flight upgrade; bgSlot (capacity 1) bounds the
	// concurrent background work; upgrading dedupes per-tuple scheduling
	// (guarded by mu).
	bgCtx     context.Context
	bgStop    context.CancelFunc
	bgSlot    chan struct{}
	upgrading map[string]bool

	// Lifetime counters behind Stats (guarded by mu).
	grounds  int64
	inserts  int64
	deletes  int64
	explains int64
	approxes int64
	upgrades int64
}

// sessionTuple carries one output tuple's finished explanation across
// Explain calls, valid for the lineage epoch it was computed at. seen is the
// stamp of the last explain that found the tuple live. upFailed records that
// a background exact upgrade already failed at upFailEpoch, so the
// scheduler does not retry until the lineage changes.
type sessionTuple struct {
	epoch uint64
	expl  *TupleExplanation
	seen  uint64

	upFailed    bool
	upFailEpoch uint64
}

// Open validates the options, evaluates the query once (grounding + lineage
// construction), and returns a session ready to Explain and to absorb
// updates. The database is captured by reference: the session absorbs every
// later write to it incrementally at its next call, whether or not the write
// went through the session.
func Open(d *Database, q *Query, opts Options) (*Session, error) {
	return OpenContext(context.Background(), d, q, opts)
}

// OpenContext is Open under the caller's context: the open-time grounding is
// recorded as a "ground" span on ctx's stage trace when one is collecting
// (the context is used for observability only; grounding runs to completion
// regardless).
func OpenContext(ctx context.Context, d *Database, q *Query, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		d:         d,
		q:         q,
		opts:      opts,
		cache:     valueCache(opts.CacheSize),
		bgSlot:    make(chan struct{}, 1),
		upgrading: make(map[string]bool),
	}
	s.bgCtx, s.bgStop = context.WithCancel(context.Background())
	if err := s.ground(ctx); err != nil {
		s.bgStop()
		return nil, err
	}
	return s, nil
}

// pipeline returns the exact pipeline's options under the session's
// configuration, with workers for Algorithm 1's per-fact loop. Foreground
// explains and background upgrades both build their options here, so they
// differ only in their workers.
func (s *Session) pipeline(workers int) core.PipelineOptions {
	return core.PipelineOptions{
		CompileTimeout:  s.opts.Timeout,
		ShapleyTimeout:  s.opts.Timeout,
		CompileMaxNodes: s.opts.MaxNodes,
		Workers:         workers,
		Strategy:        s.opts.Strategy,
		Cache:           s.cache,
		CacheOwner:      s.d.ID(),
	}
}

// ground (re)builds the session's evaluation state from the current
// database, dropping all cached artifacts. Callers hold s.mu (or own s
// exclusively, as Open does). The grounding is recorded on ctx's trace when
// one is collecting (the engine opens the "ground" span).
func (s *Session) ground(ctx context.Context) error {
	inc, err := engine.NewIncremental(ctx, s.d, s.q, circuit.NewBuilder(), engine.Options{Mode: engine.ModeEndogenous})
	if err != nil {
		return err
	}
	s.inc = inc
	s.tuples = make(map[string]*sessionTuple)
	s.epoch = s.d.Epoch()
	s.grounds++
	return nil
}

// sync brings the session up to the database's epoch. It replays the
// database's mutation feed past the session's epoch through the delta path,
// recorded as one "delta" span, and invalidates the value-cache entries of
// the deleted endogenous facts once for the whole catch-up. It re-grounds
// only when the feed no longer reaches back to the session's epoch.
//
// Replaying in order against the current database is exact, because
// derivations are keyed by their support sets: a fact deleted later in the
// window is removed again by its own delete entry, and a derivation joining
// two facts inserted in the window is found twice and kept once. For the
// same reason a replay that failed part way may simply run again: the epoch
// stays behind, and the next call replays the whole window. Callers hold
// s.mu.
func (s *Session) sync(ctx context.Context) error {
	changes, ok := s.d.ChangesSince(s.epoch)
	if !ok {
		return s.ground(ctx)
	}
	if len(changes) == 0 {
		return nil
	}
	_, sp := trace.Start(ctx, "delta")
	defer sp.End()
	var deleted []int
	deletes := 0
	for _, c := range changes {
		if !c.Deleted {
			if _, err := s.inc.Insert(c.Fact); err != nil {
				sp.Set("error", err.Error())
				return err
			}
			continue
		}
		deletes++
		s.inc.Delete(c.Fact.ID)
		if c.Fact.Endogenous {
			deleted = append(deleted, int(c.Fact.ID))
		}
	}
	if s.cache != nil {
		s.cache.Invalidate(s.d.ID(), deleted...)
	}
	inserts := len(changes) - deletes
	s.inserts += int64(inserts)
	s.deletes += int64(deletes)
	sp.Set("inserts", inserts)
	sp.Set("deletes", deletes)
	s.epoch = s.d.Epoch()
	return nil
}

// Mutation describes one fact-level update for Apply: an insertion
// (Insert == true; Relation, Endogenous, and Values describe the new fact)
// or a deletion (Insert == false; ID names the fact to remove). Build them
// with InsertOp and DeleteOp.
type Mutation struct {
	Insert     bool
	Relation   string
	Endogenous bool
	Values     []Value
	ID         FactID
}

// MutationError is the error Apply and Session.Apply return for a failing
// mutation: it names the offender's index in the batch, so a caller knows
// which prefix of its batch was applied (the service echoes it in the
// update's error). It unwraps to the underlying cause, so errors.Is
// classification (db.ErrUnknownRelation, db.ErrNoFact, db.ErrArity) sees
// through it.
type MutationError struct {
	// Index is the failing mutation's position in the Apply batch; every
	// mutation before it was applied, none after it was.
	Index int
	Err   error
}

func (e *MutationError) Error() string {
	return fmt.Sprintf("repro: mutation %d: %v", e.Index, e.Err)
}

func (e *MutationError) Unwrap() error { return e.Err }

// InsertOp returns the Mutation inserting a new fact, mirroring
// Database.Insert's parameters.
func InsertOp(relation string, endogenous bool, values ...Value) Mutation {
	return Mutation{Insert: true, Relation: relation, Endogenous: endogenous, Values: values}
}

// DeleteOp returns the Mutation deleting the fact with the given ID.
func DeleteOp(id FactID) Mutation {
	return Mutation{ID: id}
}

// Apply applies the mutations to the database in order and returns, aligned
// with muts, the inserted *Fact for insertions and nil for deletions. It is
// the one write path for batches: sessions over d absorb the mutations from
// d's feed at their next call. Apply is not transactional — it stops at the
// first failing mutation and returns its error as a *MutationError naming
// the offender's index, with every earlier mutation applied. Like any
// database write, it must not run concurrently with other calls on d or its
// sessions.
func Apply(d *Database, muts []Mutation) ([]*Fact, error) {
	out := make([]*Fact, len(muts))
	for i, m := range muts {
		var err error
		if m.Insert {
			out[i], err = d.Insert(m.Relation, m.Endogenous, m.Values...)
		} else {
			err = d.Delete(m.ID)
		}
		if err != nil {
			return out, &MutationError{Index: i, Err: err}
		}
	}
	return out, nil
}

// Apply applies the mutations to the database (see the package-level
// Apply) and then brings the session up to date, so its next Explain pays
// only for the tuples they touched. The returned slice and error follow
// the package-level Apply: on a failing mutation the session has still
// absorbed the applied prefix.
func (s *Session) Apply(muts []Mutation) ([]*Fact, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	out, err := Apply(s.d, muts)
	if serr := s.sync(context.Background()); err == nil {
		err = serr
	}
	return out, err
}

// Insert adds a fact to the database (see Database.Insert) and
// delta-maintains the session's answers: only join bindings involving the
// new fact are evaluated, and only the output tuples whose lineage gained a
// derivation are re-explained by the next Explain call.
func (s *Session) Insert(relation string, endogenous bool, values ...Value) (*Fact, error) {
	fs, err := s.Apply([]Mutation{InsertOp(relation, endogenous, values...)})
	if err != nil {
		return nil, unwrapSingle(err)
	}
	return fs[0], nil
}

// Delete removes the fact with the given ID from the database (see
// Database.Delete) and delta-maintains the session's answers: exactly the
// derivations supported by the fact disappear, answers left without
// derivations leave the result, and value-cache entries whose lineage
// mentions the fact are evicted. Entries over other facts — including
// renamed-isomorphic ones serving other tuples — survive.
func (s *Session) Delete(id FactID) error {
	_, err := s.Apply([]Mutation{DeleteOp(id)})
	return unwrapSingle(err)
}

// unwrapSingle strips the MutationError wrapper for the one-mutation
// convenience methods, where "mutation 0" adds nothing.
func unwrapSingle(err error) error {
	var me *MutationError
	if errors.As(err, &me) {
		return me.Err
	}
	return err
}

// Explain returns the explanation of every current output tuple, exactly as
// the one-shot Explain would on the current database state, recomputing
// only tuples whose lineage changed since the previous call. Unchanged
// tuples are served from the session cache (including their Elapsed, which
// reports the cost of the original computation); only recomputed tuples
// open a "tuple" span. It runs under the session's configured
// Options.Budget; see ExplainWithBudget.
func (s *Session) Explain(ctx context.Context) ([]TupleExplanation, error) {
	return s.ExplainWithBudget(ctx, s.opts.Budget)
}

// ExplainWithBudget is Explain under a per-call compute budget, overriding
// the session's Options.Budget. With the budget enabled, a tuple whose
// exact computation exceeds it is answered approximately (MethodApprox,
// sampled estimates with 95% confidence intervals) instead of erroring —
// and the session then schedules a background exact upgrade: one bounded
// background slot finishes the exact computation opportunistically
// (cancelled on Close), so subsequent explains of the same tuple serve the
// exact value.
//
// Cached approximate answers never leak into unbudgeted calls: a call whose
// budget is disabled recomputes any tuple whose cached explanation is
// approximate, so its results are indistinguishable from a session that
// never degraded.
func (s *Session) ExplainWithBudget(ctx context.Context, budget ExplainBudget) ([]TupleExplanation, error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	budgeted := budget.Enabled()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if err := s.sync(ctx); err != nil {
		return nil, err
	}
	live := s.inc.Live()
	if len(live) == 0 {
		return nil, ctx.Err()
	}

	// Make sure every live tuple has an entry before the parallel fan-out
	// (each worker then touches only its own entry), and prune the entries
	// of tuples that left the answer set. A cached explanation at the
	// current epoch is served here, on the calling goroutine, and opens no
	// span — unless it is approximate and this call did not opt into
	// approximation, in which case the exact pipeline runs (and replaces the
	// degraded cache entry). Only the tuples left in todo fan out.
	s.calls++
	out := make([]TupleExplanation, len(live))
	var todo []int
	for i, a := range live {
		entry := s.tuples[a.Key]
		if entry == nil {
			entry = &sessionTuple{}
			s.tuples[a.Key] = entry
		}
		entry.seen = s.calls
		if entry.expl != nil && entry.epoch == a.Epoch &&
			(entry.expl.Method != MethodApprox || budgeted) {
			out[i] = *entry.expl
		} else {
			todo = append(todo, i)
		}
	}
	// Every live tuple has an entry, so only a map larger than the answer
	// holds entries this call did not stamp.
	if len(s.tuples) > len(live) {
		for k, entry := range s.tuples {
			if entry.seen != s.calls {
				delete(s.tuples, k)
			}
		}
	}

	err := ctx.Err()
	if len(todo) > 0 {
		err = s.computeTuples(ctx, live, todo, out, budget)
	}
	if err != nil {
		return nil, err
	}
	s.explains++
	// Degraded answers are upgraded in place: schedule the background exact
	// computation for every tuple answered approximately at its current
	// epoch, reporting its stages to this call's trace observer. This runs
	// under mu after the fan-out completed, so it sees a consistent tuple map.
	obs := trace.ObserverOf(ctx)
	for _, a := range live {
		entry := s.tuples[a.Key]
		if entry != nil && entry.expl != nil && entry.epoch == a.Epoch &&
			entry.expl.Method == MethodApprox {
			s.scheduleUpgrade(a.Key, obs)
		}
	}
	for i := range out {
		if out[i].Method == MethodApprox {
			s.approxes++
		}
	}
	return out, nil
}

// computeTuples runs the pipeline for the live tuples indexed by todo,
// writing each explanation to its slot of out and to its cache entry. The
// worker budget is split exactly as the one-shot pipeline splits it, over
// all live tuples: fan out across answers first, and give each answer's
// Algorithm 1 loop the leftover parallelism. The error is that of the
// lowest-indexed failing tuple. Callers hold s.mu.
func (s *Session) computeTuples(ctx context.Context, live []engine.LiveAnswer, todo []int, out []TupleExplanation, budget ExplainBudget) error {
	workers := parallel.Workers(s.opts.Workers)
	outer := workers
	if outer > len(live) {
		outer = len(live)
	}
	inner := workers / outer
	if inner < 1 {
		inner = 1
	}
	popts := s.pipeline(inner)
	return parallel.ForEach(ctx, len(todo), outer, func(_, j int) error {
		i := todo[j]
		a := live[i]
		entry := s.tuples[a.Key]
		tctx, tsp := trace.Start(ctx, "tuple")
		tsp.Set("tuple", a.Tuple.String())
		endo := lineageEndo(a.Lineage)
		h, err := core.Hybrid(tctx, a.Lineage, endo, popts, budget)
		if err != nil {
			tsp.Set("error", err.Error())
			tsp.End()
			return err
		}
		expl := &TupleExplanation{
			Tuple:    a.Tuple,
			Method:   h.Method,
			Values:   h.Values,
			Proxy:    h.Proxy,
			Ranking:  h.Ranking,
			NumFacts: len(endo),
			Elapsed:  h.Elapsed,
			rendered: new(atomic.Pointer[rendering]),
		}
		if h.Method == core.MethodApprox {
			expl.Approx = h.Approx.Estimates
			expl.Samples = h.Approx.Permutations
			expl.ApproxSeed = h.Approx.Seed
			expl.DegradedCause = h.DegradedCause
		}
		entry.expl, entry.epoch = expl, a.Epoch
		entry.upFailed = false
		out[i] = *expl
		tsp.Set("facts", len(endo))
		tsp.Set("method", h.Method.String())
		if h.DegradedCause != "" {
			tsp.Set("cause", h.DegradedCause)
		}
		tsp.End()
		return nil
	})
}

// scheduleUpgrade queues the background exact upgrade for one approximately
// answered tuple, deduplicating per key and skipping tuples whose upgrade
// already failed at the current epoch. The upgrade roots its own trace with
// obs, the observer of the request that scheduled it. Callers hold s.mu.
func (s *Session) scheduleUpgrade(key string, obs trace.Observer) {
	if s.closed || s.upgrading[key] {
		return
	}
	if entry := s.tuples[key]; entry == nil ||
		(entry.upFailed && entry.upFailEpoch == entry.epoch) {
		return
	}
	s.upgrading[key] = true
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.upgrading, key)
			s.mu.Unlock()
		}()
		select {
		case s.bgSlot <- struct{}{}:
			defer func() { <-s.bgSlot }()
		case <-s.bgCtx.Done():
			return
		}
		s.upgradeTuple(key, obs)
	}()
}

// upgradeTuple runs the exact pipeline for one approximately answered tuple
// in the background and installs the exact explanation if the tuple is
// still live at the epoch the approximation was computed for. The exact
// computation itself runs outside s.mu — lineage circuit nodes are immutable
// once hash-consed, so reading a snapshotted lineage is safe while the
// foreground mutates the session — under the session's own (non-budgeted)
// limits; if it fails them too, the tuple keeps its approximate answer and
// is not retried until its lineage changes. Its stages, and the "upgrade"
// root itself, are reported to obs.
func (s *Session) upgradeTuple(key string, obs trace.Observer) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	entry := s.tuples[key]
	if entry == nil || entry.expl == nil || entry.expl.Method != MethodApprox {
		s.mu.Unlock()
		return
	}
	epoch := entry.epoch
	var lineage *circuit.Node
	var tuple Tuple
	for _, a := range s.inc.Live() {
		if a.Key == key && a.Epoch == epoch {
			lineage, tuple = a.Lineage, a.Tuple
			break
		}
	}
	s.mu.Unlock()
	if lineage == nil {
		return // the tuple moved on; the next explain recomputes it anyway
	}

	endo := lineageEndo(lineage)
	start := time.Now()
	uctx, root := trace.NewRoot(s.bgCtx, "upgrade", obs)
	defer root.End()
	res, err := core.ExplainCircuit(uctx, lineage, endo, s.pipeline(1))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	entry = s.tuples[key]
	if entry == nil || entry.epoch != epoch || entry.expl == nil ||
		entry.expl.Method != MethodApprox {
		return // superseded while we were computing
	}
	if err != nil {
		entry.upFailed, entry.upFailEpoch = true, epoch
		return
	}
	entry.expl = &TupleExplanation{
		Tuple:    tuple,
		Method:   MethodExact,
		Values:   res.Values,
		Ranking:  res.Values.Ranking(),
		NumFacts: len(endo),
		Elapsed:  time.Since(start),
		rendered: new(atomic.Pointer[rendering]),
	}
	s.upgrades++
}

// NumAnswers returns the current number of output tuples without explaining
// them (lineage maintenance is still applied).
func (s *Session) NumAnswers() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrSessionClosed
	}
	if err := s.sync(context.Background()); err != nil {
		return 0, err
	}
	return s.inc.Len(), nil
}

// SessionStats is a point-in-time snapshot of one session's state and
// lifetime counters, sized for pool bookkeeping: everything here is read
// from the session's own fields, so Stats never touches the underlying
// database (and thus never races with writes to it) and never catches up.
type SessionStats struct {
	// Answers is the number of live output tuples at the last
	// synchronization point.
	Answers int
	// CachedExplanations is how many of them have a finished explanation
	// cached at their current lineage epoch (a subsequent Explain serves
	// these verbatim).
	CachedExplanations int
	// Epoch is the database mutation epoch the session is synchronized to.
	Epoch uint64
	// Grounds counts full (re)groundings: 1 for a fresh session, +1 for
	// every catch-up that the database's mutation feed no longer reached.
	Grounds int64
	// Inserts and Deletes count the mutations absorbed incrementally from
	// the database's mutation feed, whoever applied them.
	Inserts, Deletes int64
	// Explains counts completed Explain calls.
	Explains int64
	// Approximations counts tuple answers served approximately (budget
	// exhaustion or explicit approximate mode), across all Explain calls.
	Approximations int64
	// Upgrades counts approximate answers replaced in place by the
	// background exact computation.
	Upgrades int64
}

// Stats returns the session's current statistics snapshot.
func (s *Session) Stats() (SessionStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionStats{}, ErrSessionClosed
	}
	st := SessionStats{
		Answers:        s.inc.Len(),
		Epoch:          s.epoch,
		Grounds:        s.grounds,
		Inserts:        s.inserts,
		Deletes:        s.deletes,
		Explains:       s.explains,
		Approximations: s.approxes,
		Upgrades:       s.upgrades,
	}
	for _, t := range s.tuples {
		if t.expl != nil {
			st.CachedExplanations++
		}
	}
	return st, nil
}

// Close releases the session's cached state and cancels any in-flight
// background exact upgrade. The database is left exactly as the session's
// updates made it; only the session becomes unusable.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.closed = true
	s.bgStop()
	s.inc = nil
	s.tuples = nil
	return nil
}
