package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asmodel/internal/obs"
)

// testSweep builds a Sweep whose histograms live on a private registry,
// so each test can read its own observations.
func testSweep(op string) Sweep {
	reg := obs.NewRegistry()
	b := obs.ExpBuckets(1e-3, 4, 12)
	return Sweep{
		Op:    op,
		Name:  func(i int) string { return fmt.Sprintf("P%d", i) },
		Items: reg.Histogram("items", "", obs.ExpBuckets(1, 4, 10)),
		Busy:  reg.Histogram("busy", "", b),
		Idle:  reg.Histogram("idle", "", b),
	}
}

// runBounded fails the test instead of hanging when a sweep deadlocks.
func runBounded(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("sweep deadlocked")
		return nil
	}
}

// setHook installs FaultHook for the test's duration.
func setHook(t *testing.T, h func(op string, item int)) {
	t.Helper()
	FaultHook = h
	t.Cleanup(func() { FaultHook = nil })
}

func TestWorkers(t *testing.T) {
	cpus := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{0, 1 << 20, cpus},
		{-3, 1 << 20, cpus},
		{8, 3, 3},
		{2, 100, 2},
		{4, 0, 0},
	} {
		if got := Workers(tc.workers, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// worker is per-worker state the race detector watches: bodies mutate
// it without synchronization, so any sharing between goroutines races.
type worker struct {
	idx  int
	seen []int
}

// TestRunEachIndexOnce: every index runs exactly once, each worker's
// state is built once on its own goroutine and never shared, and the
// per-worker item histogram accounts for every item.
func TestRunEachIndexOnce(t *testing.T) {
	const n, workers = 997, 4
	s := testSweep("test")
	hits := make([]atomic.Int32, n)
	var mu sync.Mutex
	var states []*worker
	err := runBounded(t, func() error {
		return Run(context.Background(), s, n, workers,
			func(wi int) *worker {
				w := &worker{idx: wi}
				mu.Lock()
				states = append(states, w)
				mu.Unlock()
				return w
			},
			func(_ context.Context, w *worker, i int) error {
				hits[i].Add(1)
				w.seen = append(w.seen, i)
				return nil
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("item %d ran %d times", i, h)
		}
	}
	if len(states) != workers {
		t.Fatalf("built %d worker states, want %d", len(states), workers)
	}
	idx := map[int]bool{}
	total := 0
	for _, w := range states {
		if idx[w.idx] {
			t.Fatalf("worker index %d built twice", w.idx)
		}
		idx[w.idx] = true
		for j := 1; j < len(w.seen); j++ {
			if w.seen[j] <= w.seen[j-1] {
				t.Fatalf("worker %d claimed out of order: %v", w.idx, w.seen)
			}
		}
		total += len(w.seen)
	}
	if total != n {
		t.Fatalf("workers saw %d items, want %d", total, n)
	}
	if s.Items.Count() != workers || int(s.Items.Sum()) != n {
		t.Fatalf("items histogram: count %d sum %v, want %d and %d", s.Items.Count(), s.Items.Sum(), workers, n)
	}
	if s.Busy.Count() != workers || s.Idle.Count() != workers {
		t.Fatalf("busy/idle observed %d/%d times, want %d", s.Busy.Count(), s.Idle.Count(), workers)
	}
}

// TestRunPanic: a panicking item — in its body or in FaultHook — yields
// a *PanicError naming the sweep, the item and carrying the stack; it is
// counted, and the sweep neither crashes nor deadlocks. FaultHook sees
// each item at most once, and every item below the failing one is
// claimed.
func TestRunPanic(t *testing.T) {
	const n, bad = 200, 57
	for _, where := range []string{"body", "hook"} {
		t.Run(where, func(t *testing.T) {
			claimed := make([]atomic.Int32, n)
			setHook(t, func(op string, item int) {
				if op != "boom" {
					t.Errorf("hook op %q, want boom", op)
				}
				claimed[item].Add(1)
				if where == "hook" && item == bad {
					panic("kaboom")
				}
			})
			before := Panics.Value()
			err := runBounded(t, func() error {
				return Run(context.Background(), testSweep("boom"), n, 4,
					func(int) struct{} { return struct{}{} },
					func(_ context.Context, _ struct{}, i int) error {
						if i == bad {
							panic("kaboom")
						}
						return nil
					})
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PanicError, got %T: %v", err, err)
			}
			if pe.Op != "boom" || pe.Prefix != fmt.Sprintf("P%d", bad) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
				t.Fatalf("incomplete panic error: op %q prefix %q value %v stack %d bytes", pe.Op, pe.Prefix, pe.Value, len(pe.Stack))
			}
			if got := Panics.Value() - before; got != 1 {
				t.Fatalf("worker_panics_recovered advanced by %d, want 1", got)
			}
			for i := 0; i < n; i++ {
				c := claimed[i].Load()
				if c > 1 {
					t.Fatalf("item %d: hook ran %d times", i, c)
				}
				if i <= bad && c != 1 {
					t.Fatalf("item %d below the failure was never claimed", i)
				}
			}
		})
	}
}

// TestRunLowestIndexWins: with two failures the lower index is returned
// even when the higher one fails first.
func TestRunLowestIndexWins(t *testing.T) {
	err := runBounded(t, func() error {
		return Run(context.Background(), testSweep("test"), 10, 10,
			func(int) struct{} { return struct{}{} },
			func(ctx context.Context, _ struct{}, i int) error {
				switch i {
				case 3:
					<-ctx.Done() // item 9's failure canceled the sweep
					return errors.New("item 3")
				case 9:
					return errors.New("item 9")
				}
				return nil
			})
	})
	if err == nil || err.Error() != "item 3" {
		t.Fatalf("got %v, want the item 3 error", err)
	}
}

// TestRunBodyErrorBeatsCancel: the cancellation a failure triggers makes
// the other in-flight bodies return context errors; those are
// interruptions, so the failure itself is returned.
func TestRunBodyErrorBeatsCancel(t *testing.T) {
	errBoom := errors.New("boom")
	const n = 8
	err := runBounded(t, func() error {
		return Run(context.Background(), testSweep("test"), n, n,
			func(int) struct{} { return struct{}{} },
			func(ctx context.Context, _ struct{}, i int) error {
				if i == 5 {
					return errBoom
				}
				<-ctx.Done()
				return fmt.Errorf("item %d interrupted: %w", i, ctx.Err())
			})
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want the body error", err)
	}
}

// TestRunCancelStopsClaiming: once the caller's ctx is canceled no new
// item is claimed, and Run reports ctx.Err().
func TestRunCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := runBounded(t, func() error {
		return Run(ctx, testSweep("test"), 100, 1,
			func(int) struct{} { return struct{}{} },
			func(context.Context, struct{}, int) error {
				if ran.Add(1) == 3 {
					cancel()
				}
				return nil
			})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d items ran, want 3", got)
	}

	// A sweep under an already-canceled ctx claims nothing.
	ran.Store(0)
	err = Run(ctx, testSweep("test"), 100, 4,
		func(int) struct{} { return struct{}{} },
		func(context.Context, struct{}, int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("pre-canceled sweep: err %v, %d items ran", err, ran.Load())
	}
}
