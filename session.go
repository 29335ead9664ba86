package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dnnf"
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
// lineage, and recompiles circuits from scratch on every call, a Session
// grounds once at Open and then delta-maintains every per-stage artifact
// under updates:
//
//   - Insert delta-joins only the bindings involving the new fact
//     (engine.EvalDelta) and splices the new derivations into the affected
//     answers' lineage;
//   - Delete drops exactly the derivations supported by the removed fact
//     via a fact→derivation index, and evicts from the compilation cache
//     only circuits whose lineage actually mentions it;
//   - Explain recomputes only the tuples whose lineage epoch advanced —
//     each tuple's Tseytin CNF, compiled d-DNNF, Shapley values, and final
//     explanation are cached per lineage epoch (core.Artifacts) and reused
//     verbatim while the tuple's provenance is unchanged.
//
// After any update sequence, Explain returns exactly what a cold Explain on
// the mutated database would: the same tuples, methods, rankings, and
// big.Rat-identical Shapley values.
//
// Updates routed through the Session are maintained incrementally. The
// Session also tolerates out-of-band mutations of the underlying Database:
// it records the database epoch it is synchronized to and, on finding the
// database ahead (someone called Database.Insert/Delete directly), falls
// back to re-grounding from scratch — correct, just not incremental.
//
// # Concurrency contract
//
// A Session is safe for concurrent use: Explain, Insert, Delete, Apply,
// NumAnswers, Stats, CacheStats, and Close may all be called from multiple
// goroutines at once. Methods serialize on an internal lock — at most one
// of them mutates or reads session state at a time — while the per-tuple
// explanation work inside one Explain call still fans out across
// Options.Workers goroutines. Concurrent calls are applied in some
// serialization order, and every call observes a state reachable by a
// serial execution of the same calls; results are big.Rat-identical to
// that serial execution (see TestSessionConcurrentHammerMatchesSerial).
// Returned explanations share cached Shapley value maps across calls and
// must be treated as read-only.
//
// The contract covers one session's methods. The underlying Database is
// NOT itself synchronized: callers that share one Database across several
// sessions (or mutate it out-of-band) must serialize database writes
// against all sessions' reads themselves — internal/server does this with
// a per-database reader/writer lock.
type Session struct {
	mu     sync.Mutex
	d      *Database
	q      *Query
	opts   Options
	cb     *circuit.Builder
	inc    *engine.Incremental
	cache  *dnnf.CompileCache
	epoch  uint64 // db.Epoch() the session state reflects
	tuples map[string]*sessionTuple
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

// sessionTuple carries one output tuple's cached pipeline state across
// Explain calls: the per-stage artifacts and the finished explanation, each
// valid for the lineage epoch they were computed at. upFailed records that a
// background exact upgrade already failed at upFailEpoch, so the scheduler
// does not retry until the lineage changes.
type sessionTuple struct {
	epoch uint64
	art   *core.Artifacts
	expl  *TupleExplanation

	upFailed    bool
	upFailEpoch uint64
}

// Open validates the options, evaluates the query once (grounding + lineage
// construction), and returns a session ready to Explain and to absorb
// updates. The database is captured by reference: route updates through
// Session.Insert / Session.Delete to get incremental maintenance.
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
		cache:     compileCache(opts.CacheSize),
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
// configuration with the given worker split. Foreground explains and
// background upgrades both build their options here, so they differ only in
// their workers.
func (s *Session) pipeline(workers, compileWorkers int) core.PipelineOptions {
	return core.PipelineOptions{
		CompileTimeout:   s.opts.Timeout,
		ShapleyTimeout:   s.opts.Timeout,
		CompileMaxNodes:  s.opts.MaxNodes,
		Workers:          workers,
		CompileWorkers:   compileWorkers,
		Speculate:        s.opts.Speculate,
		Portfolio:        s.opts.Portfolio,
		NoCanonicalCache: s.opts.NoCanonicalCache,
		Strategy:         s.opts.Strategy,
		Cache:            s.cache,
		CacheOwner:       s.d.ID(),
	}
}

// ground (re)builds the session's evaluation state from the current
// database, dropping all cached artifacts. Callers hold s.mu (or own s
// exclusively, as Open does). The grounding is recorded on ctx's trace when
// one is collecting (the engine opens the "ground" span).
func (s *Session) ground(ctx context.Context) error {
	if s.opts.IndexBudget > 0 {
		s.d.SetIndexBudget(s.opts.IndexBudget)
	}
	s.cb = circuit.NewBuilder()
	inc, err := engine.NewIncremental(ctx, s.d, s.q, s.cb, engine.Options{Mode: engine.ModeEndogenous})
	if err != nil {
		return err
	}
	s.inc = inc
	s.tuples = make(map[string]*sessionTuple)
	s.epoch = s.d.Epoch()
	s.grounds++
	return nil
}

// sync re-grounds if the database was mutated out-of-band since the session
// last saw it. Callers hold s.mu.
func (s *Session) sync(ctx context.Context) error {
	if s.d.Epoch() == s.epoch {
		return nil
	}
	return s.ground(ctx)
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

// MutationError is the error Apply returns for a failing mutation: it
// carries the index of the offender so batching layers (the service's
// update coalescer) can attribute the failure to the request that owns the
// mutation instead of failing every coalesced neighbor. It unwraps to the
// underlying cause, so errors.Is classification (db.ErrUnknownRelation,
// db.ErrNoFact, db.ErrArity) sees through it.
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

// Apply applies the mutations in order under a single lock acquisition and
// delta-maintains the session's answers for all of them, with one batched
// compilation-cache invalidation covering every deleted endogenous fact.
// It is the bulk form of Insert and Delete: a service coalescing many
// concurrent update requests into one application (see internal/server)
// pays the session synchronization and cache-invalidation cost once per
// batch instead of once per mutation.
//
// The returned slice is aligned with muts: the inserted *Fact for
// insertions, nil for deletions. Apply is not transactional — it stops at
// the first failing mutation and returns its error as a *MutationError
// naming the offender's index, with every earlier mutation applied and the
// session still consistent with the database.
func (s *Session) Apply(muts []Mutation) ([]*Fact, error) {
	return s.ApplyContext(context.Background(), muts)
}

// ApplyContext is Apply with a caller context. The context is used only for
// trace collection (each mutation's delta join is recorded under a "delta"
// span when ctx carries a collector); the application itself is not
// cancellable mid-batch — stopping between mutations would leave callers
// guessing which prefix applied for no failure of the batch itself.
func (s *Session) ApplyContext(ctx context.Context, muts []Mutation) ([]*Fact, error) {
	dctx, dsp := trace.Start(ctx, "delta")
	defer dsp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if err := s.sync(dctx); err != nil {
		return nil, err
	}
	out := make([]*Fact, len(muts))
	var invalidate []int
	defer func() {
		if len(invalidate) > 0 && s.cache != nil {
			s.cache.Invalidate(s.d.ID(), invalidate...)
		}
	}()
	inserts, deletes := 0, 0
	defer func() {
		dsp.Set("inserts", inserts)
		dsp.Set("deletes", deletes)
	}()
	for i, m := range muts {
		if m.Insert {
			f, err := s.d.Insert(m.Relation, m.Endogenous, m.Values...)
			if err != nil {
				return out, &MutationError{Index: i, Err: err}
			}
			if _, err := s.inc.Insert(dctx, f); err != nil {
				// The database advanced but the session did not: leave the
				// epochs mismatched so the next call re-grounds.
				return out, &MutationError{Index: i, Err: err}
			}
			out[i] = f
			s.inserts++
			inserts++
		} else {
			f := s.d.Fact(m.ID)
			if f == nil {
				return out, &MutationError{Index: i, Err: fmt.Errorf("db: %w with ID %d", db.ErrNoFact, m.ID)}
			}
			if err := s.d.Delete(m.ID); err != nil {
				return out, &MutationError{Index: i, Err: err}
			}
			s.inc.Delete(dctx, m.ID)
			if f.Endogenous {
				invalidate = append(invalidate, int(m.ID))
			}
			s.deletes++
			deletes++
		}
		s.epoch = s.d.Epoch()
	}
	return out, nil
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
// derivations leave the result, and compiled circuits whose lineage
// mentions the fact are evicted from the compilation cache. Circuits over
// other facts — including renamed-isomorphic cache entries serving other
// tuples — survive.
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
// reports the cost of the original computation). It runs under the
// session's configured Options.Budget; see ExplainWithBudget.
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

	// Prune cache entries for tuples that left the answer set, and make
	// sure every live tuple has an entry before the parallel fan-out (each
	// worker then touches only its own entry).
	liveKeys := make(map[string]bool, len(live))
	for _, a := range live {
		liveKeys[a.Key] = true
		if s.tuples[a.Key] == nil {
			s.tuples[a.Key] = &sessionTuple{art: &core.Artifacts{}}
		}
	}
	for k := range s.tuples {
		if !liveKeys[k] {
			delete(s.tuples, k)
		}
	}

	// Split the worker budget exactly as the one-shot pipeline does: fan
	// out across answers first, give each answer's Algorithm 1 loop the
	// leftover parallelism.
	workers := parallel.Workers(s.opts.Workers)
	outer := workers
	if outer > len(live) {
		outer = len(live)
	}
	inner := workers / outer
	if inner < 1 {
		inner = 1
	}
	compileWorkers := s.opts.CompileWorkers
	if compileWorkers == 0 {
		compileWorkers = inner
	}
	popts := s.pipeline(inner, compileWorkers)

	out := make([]TupleExplanation, len(live))
	err := parallel.ForEach(ctx, len(live), outer, func(_, i int) error {
		a := live[i]
		entry := s.tuples[a.Key]
		tctx, tsp := trace.Start(ctx, "tuple")
		tsp.Set("tuple", a.Tuple.String())
		// A cached explanation at the current epoch is served verbatim —
		// unless it is approximate and this call did not opt into
		// approximation, in which case the exact pipeline runs (and replaces
		// the degraded cache entry).
		if entry.expl != nil && entry.epoch == a.Epoch &&
			(entry.expl.Method != MethodApprox || budgeted) {
			out[i] = *entry.expl
			tsp.Set("cached", true)
			tsp.Set("method", entry.expl.Method.String())
			if entry.expl.DegradedCause != "" {
				tsp.Set("cause", entry.expl.DegradedCause)
			}
			tsp.End()
			return nil
		}
		endo := lineageEndo(a.Lineage)
		h, err := core.HybridAt(tctx, a.Lineage, endo, a.Epoch, entry.art, popts, budget)
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
	res, err := core.ExplainCircuitAt(uctx, lineage, endo, epoch, nil, s.pipeline(1, 1))

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
// database (and thus never races with another session's writes to it) and
// never triggers re-grounding.
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
	// every out-of-band database mutation detected.
	Grounds int64
	// Inserts and Deletes count mutations absorbed incrementally through
	// the session.
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

// CacheStats returns a snapshot of the compilation cache counters the
// session contributes to (the process-wide cache shared across sessions),
// or a zero snapshot when caching is disabled.
func (s *Session) CacheStats() dnnf.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return dnnf.CacheStats{}
	}
	return s.cache.Stats()
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
	s.cb = nil
	return nil
}
