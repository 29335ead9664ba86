package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/trace"
)

// Incremental maintains the answers of one query over one database under
// fact inserts and deletes, without re-evaluating the query from scratch.
//
// It keeps every answer as its set of derivations (support fact sets) rather
// than as an opaque lineage circuit:
//
//   - Insert(f) runs the delta join of EvalDelta — only bindings involving f
//     are enumerated — and splices the new conjunctions into the affected
//     answers' lineage disjunctions.
//   - Delete(id) drops exactly the derivations whose support contains the
//     fact, via a fact→derivation index, and rebuilds the affected lineages
//     from the surviving derivations. For endogenous facts this coincides
//     with conditioning the lineage on f→0 (UCQ lineage is monotone); the
//     derivation-level form also handles exogenous facts, which have no
//     lineage variable to condition on.
//
// Answers are keyed by their support sets, so a derivation re-discovered
// through several delta positions (self-joins) is stored once; since the
// provenance conjunction is a function of the support set alone, the
// maintained lineage is semantically identical to a cold Eval on the
// mutated database.
//
// Each answer carries a monotonically increasing epoch stamped from the
// Incremental's mutation counter; downstream caches compare epochs to
// cheap-check whether a tuple's explanation is still valid. Incremental is
// not safe for concurrent use; callers (repro.Session) serialize access.
type Incremental struct {
	d *db.Database
	q *query.UCQ
	// b interns the first build of the lineages and is dropped after it.
	// Each later Live interns its rebuilds into a builder of its own, which
	// nothing keeps once Live returns, so the nodes of a lineage that
	// maintenance replaced die with it instead of living on in a unique
	// table for the life of the Incremental.
	b    *circuit.Builder
	opts Options

	epoch   uint64
	answers map[string]*liveAnswer
	// keys holds the answers' keys in sorted order, or nil once an answer
	// was added or removed; Live re-sorts only then.
	keys []string
	// byFact indexes, for every supporting fact, the answer keys and
	// derivation keys it participates in: Delete touches only these. It is
	// built lazily on the first mutation, so one-shot evaluate-and-discard
	// users (repro.Explain) never pay for it.
	byFact map[db.FactID]map[string]map[string]bool
}

// LiveAnswer is one maintained output tuple: the Answer plus the bookkeeping
// the session layer needs (a stable key and the epoch of its last change).
type LiveAnswer struct {
	Answer
	// Key is the answer's stable identity (the tuple key).
	Key string
	// Epoch is the mutation count at which this answer's lineage last
	// changed; an unchanged epoch guarantees an unchanged lineage.
	Epoch uint64
}

type liveAnswer struct {
	tuple  db.Tuple // the least head of derivs in kindOrder
	derivs map[string][]*db.Fact
	// base is the head the answer was created with, and heads the head of
	// each derivation whose head differs from base in kind: nil on
	// single-kind data, which so keeps no head per derivation.
	base    db.Tuple
	heads   map[string]db.Tuple
	lineage *circuit.Node // nil when dirty (a derivation was added/removed)
	epoch   uint64
}

// setHead records h as the head of derivation dkey.
func (a *liveAnswer) setHead(dkey string, h db.Tuple) {
	if kindOrder(h, a.base) == 0 {
		delete(a.heads, dkey)
		return
	}
	if a.heads == nil {
		a.heads = make(map[string]db.Tuple)
	}
	a.heads[dkey] = h
}

// least returns the least head of the answer's derivations in kindOrder.
func (a *liveAnswer) least() db.Tuple {
	t, found := a.base, len(a.derivs) > len(a.heads)
	for _, h := range a.heads {
		if !found || kindOrder(h, t) < 0 {
			t, found = h, true
		}
	}
	return t
}

// NewIncremental evaluates the query once and returns the maintained state.
// The first Live builds the lineages in b; later rebuilds use builders of
// their own. When ctx carries a trace collector, the initial grounding is
// recorded as a "ground" span annotated with the disjunct and answer counts.
func NewIncremental(ctx context.Context, d *db.Database, q *query.UCQ, b *circuit.Builder, opts Options) (*Incremental, error) {
	_, sp := trace.Start(ctx, "ground")
	inc := &Incremental{
		d:       d,
		q:       q,
		b:       b,
		opts:    opts,
		answers: make(map[string]*liveAnswer),
	}
	for i := range q.Disjuncts {
		derivs, err := deriveCQ(d, &q.Disjuncts[i], -1, nil)
		if err != nil {
			sp.Set("error", err.Error())
			sp.End()
			return nil, fmt.Errorf("engine: disjunct %d: %w", i, err)
		}
		for _, dv := range derivs {
			inc.addDerivation(dv)
		}
	}
	sp.Set("disjuncts", len(q.Disjuncts))
	sp.Set("answers", len(inc.answers))
	sp.End()
	return inc, nil
}

// Epoch returns the mutation counter: it is bumped once per Insert or
// Delete that changed at least one answer.
func (inc *Incremental) Epoch() uint64 { return inc.epoch }

// Len returns the current number of answers without rebuilding any lineage.
func (inc *Incremental) Len() int { return len(inc.answers) }

// ensureIndex builds the fact→derivation reverse index from the current
// derivation sets; later addDerivation/Delete calls keep it consistent.
func (inc *Incremental) ensureIndex() {
	if inc.byFact != nil {
		return
	}
	inc.byFact = make(map[db.FactID]map[string]map[string]bool)
	for key, a := range inc.answers {
		for dkey, facts := range a.derivs {
			inc.indexDerivation(key, dkey, facts)
		}
	}
}

// indexDerivation links one derivation into the reverse index.
func (inc *Incremental) indexDerivation(key, dkey string, facts []*db.Fact) {
	for _, f := range facts {
		m := inc.byFact[f.ID]
		if m == nil {
			m = make(map[string]map[string]bool)
			inc.byFact[f.ID] = m
		}
		if m[key] == nil {
			m[key] = make(map[string]bool)
		}
		m[key][dkey] = true
	}
}

// Insert delta-evaluates the already-inserted fact f and splices any new
// derivations into the maintained answers. It returns the tuples whose
// lineage changed (including tuples that newly appeared). It opens no span:
// the caller times a whole catch-up as one stage.
func (inc *Incremental) Insert(f *db.Fact) ([]db.Tuple, error) {
	derivs, err := EvalDelta(inc.d, inc.q, f)
	if err != nil {
		return nil, err
	}
	changedSet := make(map[*liveAnswer]bool)
	for _, dv := range derivs {
		a, changed := inc.addDerivation(dv)
		if !changed {
			continue
		}
		if len(changedSet) == 0 {
			inc.epoch++
		}
		changedSet[a] = true
	}
	changed := make([]db.Tuple, 0, len(changedSet))
	for a := range changedSet {
		a.epoch = inc.epoch
		changed = append(changed, a.tuple)
	}
	return changed, nil
}

// Delete removes every derivation supported by the fact with the given ID
// and returns the tuples whose lineage changed (including tuples that
// vanished from the answer set). The fact may already be gone from the
// database; only the index is consulted. Like Insert, it opens no span.
func (inc *Incremental) Delete(id db.FactID) []db.Tuple {
	inc.ensureIndex()
	touched := inc.byFact[id]
	if len(touched) == 0 {
		return nil
	}
	inc.epoch++
	var changed []db.Tuple
	for akey, dkeys := range touched {
		a := inc.answers[akey]
		for dkey := range dkeys {
			support := a.derivs[dkey]
			delete(a.derivs, dkey)
			delete(a.heads, dkey)
			// Unlink the derivation from every other supporting fact's
			// index so the reverse index never references dead entries.
			for _, f := range support {
				if f.ID == id {
					continue
				}
				if m := inc.byFact[f.ID]; m != nil {
					delete(m[akey], dkey)
					if len(m[akey]) == 0 {
						delete(m, akey)
					}
					if len(m) == 0 {
						delete(inc.byFact, f.ID)
					}
				}
			}
		}
		if len(a.derivs) == 0 {
			changed = append(changed, a.tuple)
			delete(inc.answers, akey)
			inc.keys = nil
			continue
		}
		a.tuple = a.least()
		changed = append(changed, a.tuple)
		a.lineage = nil
		a.epoch = inc.epoch
	}
	delete(inc.byFact, id)
	return changed
}

// addDerivation records the derivation, marking its answer dirty; the
// answer is created if the tuple is new. It returns the (possibly new)
// answer and whether the answer changed: a new derivation, or a known one
// (one support set can witness Equal heads of different kinds) whose head
// lowered the answer's tuple.
func (inc *Incremental) addDerivation(dv Derivation) (*liveAnswer, bool) {
	key := dv.Tuple.Key()
	a, ok := inc.answers[key]
	if !ok {
		a = &liveAnswer{tuple: dv.Tuple, base: dv.Tuple, derivs: make(map[string][]*db.Fact), epoch: inc.epoch}
		inc.answers[key] = a
		inc.keys = nil
	}
	dkey := supportKey(dv.Facts)
	_, dup := a.derivs[dkey]
	if dup {
		h, ok := a.heads[dkey]
		if !ok {
			h = a.base
		}
		if kindOrder(dv.Tuple, h) >= 0 {
			return a, false
		}
	} else {
		a.derivs[dkey] = dv.Facts
		a.lineage = nil
		if inc.byFact != nil {
			inc.indexDerivation(key, dkey, dv.Facts)
		}
	}
	old := a.tuple
	a.setHead(dkey, dv.Tuple)
	a.tuple = a.least()
	return a, !dup || kindOrder(a.tuple, old) != 0
}

// Live returns the current answers sorted by tuple, rebuilding the lineage
// of any answer whose derivation set changed since the last call. Lineage
// reconstruction is deterministic (derivations in sorted-key order) and
// touches only dirty answers. Every lineage is hash-consed within itself;
// lineages rebuilt by different calls share no nodes. The sorted order is
// kept between calls until an answer is added or removed.
func (inc *Incremental) Live() []LiveAnswer {
	if inc.keys == nil {
		inc.keys = make([]string, 0, len(inc.answers))
		for k := range inc.answers {
			inc.keys = append(inc.keys, k)
		}
		sort.Strings(inc.keys)
	}
	b := inc.b
	inc.b = nil
	out := make([]LiveAnswer, 0, len(inc.keys))
	for _, k := range inc.keys {
		a := inc.answers[k]
		if a.lineage == nil {
			if b == nil {
				b = circuit.NewBuilder()
			}
			dkeys := make([]string, 0, len(a.derivs))
			for dk := range a.derivs {
				dkeys = append(dkeys, dk)
			}
			sort.Strings(dkeys)
			conjs := make([]*circuit.Node, len(dkeys))
			for i, dk := range dkeys {
				conjs[i] = Derivation{Tuple: a.tuple, Facts: a.derivs[dk]}.Conjunction(b, inc.opts)
			}
			a.lineage = b.Or(conjs...)
		}
		out = append(out, LiveAnswer{
			Answer: Answer{Tuple: a.tuple, Lineage: a.lineage},
			Key:    k,
			Epoch:  a.epoch,
		})
	}
	return out
}

// Answers returns the current answers in Eval's format and order.
func (inc *Incremental) Answers() []Answer {
	live := inc.Live()
	out := make([]Answer, len(live))
	for i, a := range live {
		out[i] = a.Answer
	}
	return out
}
