package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 57
			var counts [n]atomic.Int64
			if err := ForEach(workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachLowestIndexError checks deterministic fail-fast error
// propagation: regardless of scheduling, the error of the lowest
// failing index wins, every index below it still runs, and (in the
// sequential degenerate case) nothing beyond it runs at all.
func TestForEachLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		var ran [40]atomic.Int64
		err := ForEach(workers, 40, func(i int) error {
			ran[i].Add(1)
			switch i {
			case 3:
				return errLow
			case 35:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
		for i := 0; i <= 3; i++ {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d below the failure ran %d times, want 1",
					workers, i, ran[i].Load())
			}
		}
		if workers == 1 {
			for i := 4; i < 40; i++ {
				if ran[i].Load() != 0 {
					t.Fatalf("sequential: index %d ran after the failure", i)
				}
			}
		}
	}
}

// TestForEachSlotWrites is the canonical usage pattern: concurrent
// writers each own one slot, so the assembled result is deterministic.
// Run under -race this also proves the pool itself is race-clean.
func TestForEachSlotWrites(t *testing.T) {
	const n = 64
	out := make([]int, n)
	if err := ForEach(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestLimiterBoundsConcurrency(t *testing.T) {
	l := NewLimiter(3)
	if l.Cap() != 3 {
		t.Fatalf("Cap = %d", l.Cap())
	}
	var peak, cur atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.AcquireTimeout(context.Background(), time.Minute); err != nil {
				t.Error(err)
				return
			}
			defer l.Release()
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds limiter cap 3", p)
	}
}

func TestLimiterTryAcquireAndContext(t *testing.T) {
	l := NewLimiter(1)
	if !l.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if l.TryAcquire() {
		t.Fatal("second TryAcquire succeeded past cap")
	}
	if l.InUse() != 1 {
		t.Fatalf("InUse = %d", l.InUse())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.AcquireTimeout(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireTimeout on canceled ctx: %v", err)
	}
	if err := l.AcquireTimeout(context.Background(), time.Millisecond); !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("AcquireTimeout past a full limiter: %v", err)
	}
	l.Release()
	if err := l.AcquireTimeout(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	l.Release()
}
