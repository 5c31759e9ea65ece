// Package pool is the one worker pool behind every per-prefix sweep:
// evaluation, ground-truth generation and the serving route-table
// build. Policies are kept per (session, prefix)
// and each prefix is simulated on its own, so a sweep is n independent
// items fanned out over per-worker state and merged by the caller in
// index order — which is what makes every sweep's output identical at
// any worker count.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"asmodel/internal/obs"
)

// Panics counts item panics recovered by any sweep.
var Panics = obs.GetCounter("worker_panics_recovered", "panics recovered in parallel worker goroutines")

// FaultHook, when non-nil, runs before every item's body with the
// sweep's Op and the item index, inside the panic recovery. Fault-
// injection tests point it at a panic injector; it must only be set
// while no sweep is in flight.
var FaultHook func(op string, item int)

// DefaultWorkers is the pool size a sweep uses when the caller passes
// 0: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers resolves a requested worker count for a sweep of n items:
// workers <= 0 selects DefaultWorkers(), and the result never exceeds
// n. A result <= 1 tells the caller to take its sequential path.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return min(workers, n)
}

// PanicError reports a panic recovered while a worker processed one
// item. The sweep converts the panic into this typed error, cancels the
// remaining items and returns it, so a bug (or an injected fault) in
// one prefix's simulation fails the call instead of killing the
// process.
type PanicError struct {
	// Op is the sweep that panicked: "evaluate", "generate" or "serve"
	// (a serving snapshot's route-table build).
	Op string
	// Prefix names the prefix being processed when the panic fired.
	Prefix string
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack trace captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: %s worker panicked on prefix %s: %v", e.Op, e.Prefix, e.Value)
}

// Sweep describes one sweep to Run.
type Sweep struct {
	// Op names the sweep in PanicError and FaultHook.
	Op string
	// Name returns item i's prefix name for PanicError.
	Name func(i int) string
	// Span parents the per-worker spans (nil is fine).
	Span *obs.Span
	// Items, Busy and Idle receive one observation per worker: items
	// completed without error, seconds inside bodies, and seconds
	// elsewhere (worker-state build, cursor contention, tail straggling).
	Items, Busy, Idle *obs.Histogram
}

// Run processes items 0..n-1 on workers goroutines. Each goroutine
// builds its own state with newWorker(worker index) and then claims
// items in index order from a shared cursor, calling body for each.
//
// The first failing item — a body error or a recovered panic, which
// becomes a *PanicError counted on worker_panics_recovered — cancels the
// ctx passed to bodies, so no new items are claimed; an item already
// claimed still runs its body (under the canceled ctx). A body error
// returned once that ctx is done and matching its error is an
// interruption, not a failure. Run returns the lowest-index failure,
// which wins over ctx's own cancellation; otherwise ctx.Err().
//
// Each worker opens a volatile "worker" span under s.Span: its count
// follows the worker count and its attrs are wall-clock, so redacted
// traces drop it entirely.
func Run[W any](ctx context.Context, s Sweep, n, workers int, newWorker func(worker int) W, body func(ctx context.Context, w W, i int) error) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		failAt  = n
		failErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < failAt {
			failAt, failErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wspan := s.Span.StartVolatileChild("worker", obs.VolatileAttr("worker", wi))
			start := time.Now()
			var busy time.Duration
			items := 0
			defer func() {
				idle := time.Since(start) - busy
				s.Items.ObserveInt(items)
				s.Busy.ObserveDuration(busy)
				s.Idle.ObserveDuration(idle)
				wspan.Set(
					obs.VolatileAttr("prefixes", items),
					obs.VolatileAttr("busy_seconds", busy.Seconds()),
					obs.VolatileAttr("idle_seconds", idle.Seconds()))
				wspan.End()
			}()
			w := newWorker(wi)
			// Check before claiming, never after: a claimed item always
			// runs its body. Items are claimed in index order, so every
			// item below a failure runs and Run's lowest-index failure
			// really is the lowest.
			for wctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				panicked, err := call(wctx, &s, w, i, body)
				busy += time.Since(t0)
				if err != nil {
					if panicked || !errors.Is(err, wctx.Err()) {
						fail(i, err)
					}
					return
				}
				items++
			}
		}(wi)
	}
	wg.Wait()
	if failErr != nil {
		return failErr
	}
	return ctx.Err()
}

// call runs one body call, recovering a panic into a *PanicError so it
// is attributed to the item that raised it and stops only this worker.
func call[W any](ctx context.Context, s *Sweep, w W, i int, body func(context.Context, W, int) error) (panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			Panics.Inc()
			err = &PanicError{Op: s.Op, Prefix: s.Name(i), Value: p, Stack: debug.Stack()}
			panicked = true
		}
	}()
	if hook := FaultHook; hook != nil {
		hook(s.Op, i)
	}
	return false, body(ctx, w, i)
}
