// Package parallel provides the worker pool underlying the experiment
// engine and the batch analyzer — Executor, whose indexed fan-out gives
// results independent of worker count, and ForEach as its one-shot
// form — and Limiter for admitting open-ended work, which is all the
// node's ingest uses: an upload is decoded and analysed on its
// request's own goroutine.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"time"
)

// ForEach runs fn(0..n-1) across the given number of workers (<= 0
// selects runtime.GOMAXPROCS(0)) and waits for all of them: it is Map,
// under Map's determinism contract, on a pool that lives for the call.
// The caller is one of the workers and the pool holds the rest, so a
// single worker is a plain sequential loop with no goroutines.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pool *Executor
	if workers = min(workers, n); workers > 1 {
		pool = NewExecutor(workers-1, nil)
		defer pool.Close()
	}
	return pool.Map(n, func(i int, _ any) error { return fn(i) })
}

// Limiter is the open-ended counterpart of ForEach's bounded pool: a
// counting semaphore for long-running services whose task count is not
// known up front (e.g. internal/node admitting session streams), which
// wait a bounded time for a slot and shed load past it.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter admitting up to n concurrent holders;
// n must be positive.
func NewLimiter(n int) *Limiter {
	return &Limiter{sem: make(chan struct{}, n)}
}

// Cap returns the limiter's capacity.
func (l *Limiter) Cap() int { return cap(l.sem) }

// InUse returns the number of slots currently held.
func (l *Limiter) InUse() int { return len(l.sem) }

// ErrAcquireTimeout reports that AcquireTimeout gave up waiting for a
// slot. Services map it onto load-shedding responses (429).
var ErrAcquireTimeout = errors.New("parallel: limiter saturated, acquire timed out")

// AcquireTimeout takes a slot, waiting at most d for one: it returns
// ErrAcquireTimeout when the limiter stays saturated and ctx.Err() when
// the caller gives up first. A service that sheds load on saturation
// converts ErrAcquireTimeout into a retryable rejection rather than
// holding the producer hostage on a full semaphore.
func (l *Limiter) AcquireTimeout(ctx context.Context, d time.Duration) error {
	if l.TryAcquire() {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return ErrAcquireTimeout
	}
}

// TryAcquire takes a slot without blocking, reporting success.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by AcquireTimeout or TryAcquire.
func (l *Limiter) Release() { <-l.sem }
