package repro

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/flights"
)

// TestSessionConcurrentHammerMatchesSerial enforces the Session concurrency
// contract: Explain, Insert, Delete, Apply, NumAnswers and Stats, with
// CompileCacheStats, hammered from many goroutines must be race-free (run
// under -race in CI) and leave the session in a state big.Rat-identical to
// a serial execution of the same mutation scripts — and to a cold Explain
// on an equivalent database.
//
// Each mutator goroutine runs a net-zero script (insert a joining flight,
// explain, delete it), so the final database equals the initial one and the
// final explanation is the paper's flights ground truth regardless of how
// the goroutines interleave. Explanations observed mid-flight are checked
// against the one invariant every consistent snapshot satisfies here: the
// Shapley efficiency axiom (the values of a true Boolean answer over an
// all-endogenous-or-irrelevant lineage sum to exactly 1).
func TestSessionConcurrentHammerMatchesSerial(t *testing.T) {
	fdb, _ := flights.Build()
	q := flights.Query()
	s, err := Open(fdb, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	const (
		mutators   = 4
		explainers = 3
		rounds     = 3
	)
	usa := []string{"JFK", "EWR", "BOS", "LAX"}
	one := big.NewRat(1, 1)

	var wg sync.WaitGroup
	errs := make(chan error, mutators+explainers)
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f, err := s.Insert("Flights", true, String(usa[w%len(usa)]), String("CDG"))
				if err != nil {
					errs <- err
					return
				}
				if _, err := s.Explain(ctx); err != nil {
					errs <- err
					return
				}
				if err := s.Delete(f.ID); err != nil {
					errs <- err
					return
				}
				// Bulk form: two inserts applied in one batch, then one
				// batched delete of both.
				fs, err := s.Apply([]Mutation{
					InsertOp("Flights", true, String(usa[w%len(usa)]), String("ORY")),
					InsertOp("Flights", true, String("LHR"), String("CDG")),
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := s.Apply([]Mutation{DeleteOp(fs[0].ID), DeleteOp(fs[1].ID)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < explainers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				es, err := s.Explain(ctx)
				if err != nil {
					errs <- err
					return
				}
				for i := range es {
					if es[i].Method != MethodExact {
						errs <- errNonExact(es[i].Method)
						return
					}
					if sum := es[i].Values.Sum(); sum.Cmp(one) != 0 {
						errs <- errBadSum{sum}
						return
					}
				}
				if _, err := s.NumAnswers(); err != nil {
					errs <- err
					return
				}
				if _, err := s.Stats(); err != nil {
					errs <- err
					return
				}
				CompileCacheStats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, err := s.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Serial execution of the same scripts on an equivalent database.
	sdb, _ := flights.Build()
	serial, err := Open(sdb, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for w := 0; w < mutators; w++ {
		for r := 0; r < rounds; r++ {
			f, err := serial.Insert("Flights", true, String(usa[w%len(usa)]), String("CDG"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := serial.Explain(ctx); err != nil {
				t.Fatal(err)
			}
			if err := serial.Delete(f.ID); err != nil {
				t.Fatal(err)
			}
			fs, err := serial.Apply([]Mutation{
				InsertOp("Flights", true, String(usa[w%len(usa)]), String("ORY")),
				InsertOp("Flights", true, String("LHR"), String("CDG")),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := serial.Apply([]Mutation{DeleteOp(fs[0].ID), DeleteOp(fs[1].ID)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	serialFinal, err := serial.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertExplanationsEqual(t, final, serialFinal, "concurrent vs serial")

	// And both match a cold Explain on a fresh equivalent database: the
	// scripts are net-zero, so the paper's ground truth applies. Fact IDs
	// agree because the initial builds are identical and IDs are never
	// reused.
	cdb, _ := flights.Build()
	cold, err := Explain(ctx, cdb, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertExplanationsEqual(t, final, cold, "concurrent vs cold")

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantMuts := int64(mutators * rounds * 3)
	if st.Inserts != wantMuts || st.Deletes != wantMuts {
		t.Errorf("Stats counted %d inserts / %d deletes, want %d / %d",
			st.Inserts, st.Deletes, wantMuts, wantMuts)
	}
	if st.Answers != 1 || st.CachedExplanations != 1 {
		t.Errorf("Stats = %+v, want 1 answer with a cached explanation", st)
	}
	if st.Grounds != 1 {
		t.Errorf("Stats counted %d grounds, want 1 (no out-of-band mutations)", st.Grounds)
	}
}

type errNonExact Method

func (e errNonExact) Error() string {
	return "explanation method is " + Method(e).String() + ", want exact"
}

type errBadSum struct{ sum *big.Rat }

func (e errBadSum) Error() string { return "efficiency sum " + e.sum.RatString() + ", want 1" }

// TestSessionApplyBatch pins Apply's bulk semantics: result alignment with
// the mutation list, one batched application, and the documented
// stop-at-first-error behavior that leaves the session consistent with the
// database (the next Explain matches a cold Explain on the mutated state).
func TestSessionApplyBatch(t *testing.T) {
	ctx := context.Background()
	d, facts := flights.Build()
	s, err := Open(d, flights.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fs, err := s.Apply([]Mutation{
		InsertOp("Flights", true, String("JFK"), String("ORY")),
		DeleteOp(facts.A[1].ID),
		InsertOp("Flights", true, String("BOS"), String("CDG")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[0] == nil || fs[1] != nil || fs[2] == nil {
		t.Fatalf("Apply results misaligned: %v", fs)
	}
	got, err := s.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Explain(ctx, d, flights.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertExplanationsEqual(t, got, cold, "after batch")

	// A failing mutation mid-batch applies the prefix and stops.
	pre, _ := s.Stats()
	fs, err = s.Apply([]Mutation{
		DeleteOp(fs[0].ID),
		InsertOp("NoSuchRelation", true, Int(1)),
		InsertOp("Flights", true, String("LAX"), String("CDG")),
	})
	if err == nil || !strings.Contains(err.Error(), "NoSuchRelation") {
		t.Fatalf("Apply with bad relation: err = %v, want unknown-relation error", err)
	}
	var me *MutationError
	if !errors.As(err, &me) || me.Index != 1 {
		t.Fatalf("Apply error %v, want *MutationError with Index 1", err)
	}
	if !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("Apply error %v does not wrap ErrUnknownRelation", err)
	}
	if fs[0] != nil || fs[1] != nil || fs[2] != nil {
		t.Fatalf("failed batch results: %v, want all nil (delete prefix, no inserts)", fs)
	}
	post, _ := s.Stats()
	if post.Deletes != pre.Deletes+1 || post.Inserts != pre.Inserts {
		t.Errorf("prefix application: %+v -> %+v, want exactly one extra delete", pre, post)
	}
	got, err = s.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cold, err = Explain(ctx, d, flights.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertExplanationsEqual(t, got, cold, "after failed batch")
}
