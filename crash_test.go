package repro

// Crash-recovery property tests: a process dying at an arbitrary byte
// offset of its write-ahead log must reopen to a prefix-consistent
// database — exactly the first m acknowledged mutations for some m, with
// no partial record applied — and the recovered database's Shapley values
// must be big.Rat-identical to a cold replay of that same prefix. Under
// SyncPolicy Always, m must equal the number of acknowledged mutations.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/faultfs"
)

// crashOp is one acknowledged mutation of a randomized script.
type crashOp struct {
	insert bool
	// insert: the two column values and the endogenous flag; delete: ignored.
	a, b int64
	endo bool
	// delete: the position (in acked-insert order) of the victim among
	// inserts acked so far. Replaying by position keeps shadow IDs aligned
	// with the crashed run's IDs.
	victim int
}

// runCrashScript drives a randomized mutation script against a persistent
// database whose WAL dies at crashAt bytes, and returns the ops
// that were acknowledged before the crash (or before the script ended).
func runCrashScript(t *testing.T, dir string, sync db.SyncPolicy, crashAt int64, rng *rand.Rand, nOps int) []crashOp {
	t.Helper()
	inj := faultfs.New()
	open := func(path string, flag int, perm os.FileMode) (db.WALFile, error) {
		return inj.Open(path, flag, perm)
	}
	d := db.New()
	if err := d.Persist(db.PersistConfig{Dir: dir, Sync: sync, OpenFile: open}); err != nil {
		t.Fatalf("persist: %v", err)
	}
	inj.CrashAt(crashAt)

	d.CreateRelation("R", "a", "b")
	if d.Err() != nil {
		return nil // crashed inside the schema record: zero acked mutations
	}
	var acked []crashOp
	var live []db.FactID // acked inserts still alive, in ack order
	for i := 0; i < nOps; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			if err := d.Delete(live[k]); err != nil {
				return acked
			}
			acked = append(acked, crashOp{victim: k})
			live = append(live[:k], live[k+1:]...)
			continue
		}
		// Mostly exogenous facts keep the exact Shapley computation small
		// (the cross-check compiles the lineage twice per subtest) while
		// still exercising both flags through the log.
		op := crashOp{insert: true, a: int64(rng.Intn(7)), b: int64(rng.Intn(7)), endo: rng.Intn(4) == 0}
		f, err := d.Insert("R", op.endo, Int(op.a), Int(op.b))
		if err != nil {
			return acked
		}
		acked = append(acked, op)
		live = append(live, f.ID)
	}
	// Script completed without tripping the injector (crashAt beyond the
	// log's total size): simulate the crash by abandoning the database
	// without Close all the same.
	return acked
}

// replayOps rebuilds the first m acked ops cold, in memory.
// Fact IDs are assigned by the same deterministic rule the crashed run
// used (sequential from 1), so provenance variables line up exactly.
func replayOps(ops []crashOp, m int) *Database {
	d := NewDatabase()
	d.CreateRelation("R", "a", "b")
	var live []db.FactID
	for _, op := range ops[:m] {
		if op.insert {
			f := d.MustInsert("R", op.endo, Int(op.a), Int(op.b))
			live = append(live, f.ID)
		} else {
			if err := d.Delete(live[op.victim]); err != nil {
				panic(err)
			}
			live = append(live[:op.victim], live[op.victim+1:]...)
		}
	}
	return d
}

// factSignature canonicalizes a database's fact set (IDs, relations,
// tuples, endogenous flags) for equality checks.
func factSignature(d *Database) string {
	var lines []string
	for _, f := range append(d.EndogenousFacts(), d.ExogenousFacts()...) {
		lines = append(lines, fmt.Sprintf("%d|%s|%s|%v", f.ID, f.Relation, f.Tuple, f.Endogenous))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func crashQuery(t *testing.T) *Query {
	t.Helper()
	q, err := ParseQuery(`q() :- R(x, y), R(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// explainValues computes exact Shapley values for the crash query.
func explainValues(t *testing.T, d *Database) Values {
	t.Helper()
	exp, err := ExplainBoolean(context.Background(), d, crashQuery(t), Options{})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	return exp.Values
}

// crashSameValues reports big.Rat-identical Shapley value maps.
func crashSameValues(a, b Values) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok || v.Cmp(w) != 0 {
			return false
		}
	}
	return true
}

// TestCrashRecoveryPrefixConsistency is the fault-injection property test:
// for randomized scripts, sync policies, and crash offsets, reopening
// always yields exactly a prefix of the acknowledged mutations, with
// Shapley values identical to a cold replay of that prefix — and under
// SyncPolicy Always, the whole acknowledged script survives.
func TestCrashRecoveryPrefixConsistency(t *testing.T) {
	policies := []db.SyncPolicy{
		{Mode: db.SyncAlways},
		{Mode: db.SyncEveryN, N: 4},
		{Mode: db.SyncEveryN, N: 32},
		{Mode: db.SyncOnClose},
	}
	const nOps = 40
	for seed := int64(0); seed < 8; seed++ {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("seed=%d/sync=%s", seed, pol), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*31 + int64(pol.Mode)))
				// Offsets span "inside the schema record" through "past the
				// end of the log" (~90 bytes per framed record).
				crashAt := int64(rng.Intn(nOps * 110))
				dir := t.TempDir()
				acked := runCrashScript(t, dir, pol, crashAt, rng, nOps)

				re, info, err := db.Open(db.PersistConfig{Dir: dir})
				if err != nil {
					t.Fatalf("recovery failed (crashAt=%d, acked=%d): %v", crashAt, len(acked), err)
				}
				defer re.Close()

				if re.Relation("R") == nil {
					// The schema record never became durable — the empty
					// prefix (m = 0). Legitimate under EveryN/OnClose, where
					// acknowledged ≠ fsynced; never under Always.
					if re.NumFacts() != 0 {
						t.Fatalf("facts recovered without their relation: %d", re.NumFacts())
					}
					if pol.Mode == db.SyncAlways && len(acked) != 0 {
						t.Fatalf("SyncAlways lost all %d acknowledged mutations", len(acked))
					}
					return
				}

				got := factSignature(re)
				m := -1
				for i := len(acked); i >= 0; i-- {
					if factSignature(replayOps(acked, i)) == got {
						m = i
						break
					}
				}
				if m < 0 {
					t.Fatalf("recovered state (crashAt=%d, dropped=%d bytes) matches no acked prefix:\n%s",
						crashAt, info.DroppedBytes, got)
				}
				if pol.Mode == db.SyncAlways && m != len(acked) {
					t.Fatalf("SyncAlways lost acknowledged mutations: recovered prefix %d of %d", m, len(acked))
				}
				// The recovered database must explain identically to a cold
				// replay of the surviving prefix.
				if !crashSameValues(explainValues(t, re), explainValues(t, replayOps(acked, m))) {
					t.Fatalf("Shapley values diverge from cold replay of prefix %d/%d", m, len(acked))
				}
			})
		}
	}
}

// TestConcurrentExplainsAfterRecovery reopens a torn-tail directory and
// hammers the recovered database with concurrent explains (run under
// -race in CI): recovery must hand back structures safe for parallel
// read-only use, all agreeing on the same values.
func TestConcurrentExplainsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	acked := runCrashScript(t, dir, db.SyncPolicy{Mode: db.SyncAlways}, 4000, rng, 40)
	if len(acked) == 0 {
		t.Fatal("script acked nothing")
	}
	re, _, err := db.Open(db.PersistConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	want := explainValues(t, re)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				exp, err := ExplainBoolean(context.Background(), re, crashQuery(t), Options{})
				if err != nil {
					errs <- fmt.Sprintf("explain: %v", err)
					return
				}
				if !crashSameValues(want, exp.Values) {
					errs <- "concurrent explain diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
