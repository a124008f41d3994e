package main

import (
	"container/heap"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// arrivals returns the session start offsets of a Poisson process of
// the given rate over [0, window), conditioned on its expected count:
// round(rate·window) arrivals placed independently and uniformly, which
// is exactly how a Poisson process's points are distributed once their
// number is known. Fixing the count keeps the offered load the same for
// every seed (so goodput is comparable between runs) without smoothing
// the bursts that make the loop open. The same seed gives the same
// schedule.
func arrivals(seed int64, rate float64, window time.Duration) []time.Duration {
	n := int(rate*window.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// op is one scheduled request of an open loop: chunk Step of session
// Session, due at Due. A session's steps run strictly in order — step
// n+1 becomes eligible only when step n has completed — while steps of
// different sessions interleave on the senders.
type op struct {
	Due     time.Time
	Session int
	Step    int
}

type opHeap []op

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if !h[i].Due.Equal(h[j].Due) {
		return h[i].Due.Before(h[j].Due)
	}
	return h[i].Session < h[j].Session
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// openLoop drives a schedule through a fixed number of senders. The
// schedule does not slow when the system does: an op is sent as soon as
// a sender is free at or after its due time, and callers time it from
// Due, so the wait a stall imposes on later requests is counted.
type openLoop struct {
	mu      sync.Mutex
	pending opHeap
	open    int           // ops not yet completed, queued or running
	wake    chan struct{} // nudges senders sleeping towards a due time
}

// newOpenLoop seeds the loop with each session's first op.
func newOpenLoop(first []op) *openLoop {
	l := &openLoop{pending: append(opHeap(nil), first...), open: len(first), wake: make(chan struct{}, 1)}
	heap.Init(&l.pending)
	return l
}

// run executes the schedule on `senders` goroutines and returns when
// every session has finished. do performs one op on sender w and
// returns the session's next op, or ok=false when the session is over.
func (l *openLoop) run(senders int, do func(w int, o op) (next op, ok bool)) {
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				o, ok := l.take()
				if !ok {
					return
				}
				next, more := do(w, o)
				l.mu.Lock()
				if more {
					heap.Push(&l.pending, next)
				} else {
					l.open--
				}
				l.mu.Unlock()
				l.nudge()
			}
		}(w)
	}
	wg.Wait()
}

func (l *openLoop) nudge() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// take blocks until the earliest eligible op is due and claims it; it
// reports false once no op is left anywhere. A sender never holds an op
// while it sleeps, so an earlier op that becomes eligible meanwhile is
// taken first by whichever sender wakes.
func (l *openLoop) take() (op, bool) {
	for {
		l.mu.Lock()
		if l.open == 0 {
			l.mu.Unlock()
			l.nudge() // pass the news on to the other senders
			return op{}, false
		}
		wait := time.Hour // no eligible op: sleep until a completion nudges
		if len(l.pending) > 0 {
			wait = time.Until(l.pending[0].Due)
			if wait <= 0 {
				o := heap.Pop(&l.pending).(op)
				l.mu.Unlock()
				return o, true
			}
		}
		l.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-l.wake:
		case <-t.C:
		}
		t.Stop()
	}
}
