package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			var counts [n]atomic.Int32
			err := ForEach(context.Background(), n, workers, func(_, i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("index %d visited %d times", i, got)
				}
			}
		})
	}
}

func TestForEachWorkerIDsAreDistinctSlots(t *testing.T) {
	const n, workers = 200, 4
	var perWorker [workers]atomic.Int32
	err := ForEach(context.Background(), n, workers, func(w, _ int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
		perWorker[w].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int32(0)
	for i := range perWorker {
		total += perWorker[i].Load()
	}
	if total != n {
		t.Errorf("total tasks = %d, want %d", total, n)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 0, 8, func(_, _ int) error {
		t.Error("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach(context.Background(), 10, 1, func(_, i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Errorf("ran %v, want indices 0..3", ran)
	}
}

func TestForEachParallelReportsLowestIndexedError(t *testing.T) {
	// Every task fails; whatever interleaving occurs, task 0 always runs
	// (it is claimed first), so its error must win.
	err := ForEach(context.Background(), 50, 8, func(_, i int) error {
		return fmt.Errorf("task %d", i)
	})
	if err == nil || err.Error() != "task 0" {
		t.Fatalf("err = %v, want task 0", err)
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(ctx, 100, workers, func(_, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		// A pre-cancelled context admits no new tasks on the serial path
		// and at most a benign handful on the parallel one (each worker
		// observes ctx before claiming).
		if workers == 1 && ran.Load() != 0 {
			t.Errorf("serial path ran %d tasks after cancellation", ran.Load())
		}
	}
}

func TestForEachCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 1000, 4, func(_, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the loop (ran %d)", n)
	}
}

func TestWorkersKnob(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("positive knob not respected")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("non-positive knob must resolve to ≥1 worker")
	}
}
