package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// queuePerWorker bounds the queue at this many waiting tasks per
// worker. A waiting closure pins what it captured, so a producer that
// outruns the pool has to block in Submit rather than grow memory.
const queuePerWorker = 16

// Executor is the package's one scheduling engine: a fixed set of
// workers draining a single bounded queue, each handing its own
// reusable scratch value to every task it runs, so per-core state is
// built once per worker, not per task. Submit enqueues one function.
// Map fans an index range out and is caller-helps, hence nestable: the
// caller works through its own batch instead of sleeping, so a Map
// inside a Map task cannot deadlock, and parallelism stays at the
// worker count plus the outermost caller at any nesting depth.
//
// Determinism contract: every index gets its own output slot, every
// index below the lowest failing one runs, and that index's error is
// returned. A caller that derives per-index randomness from the index
// alone therefore gets byte-identical results at any pool width.
type Executor struct {
	workers    int
	queue      chan func(scratch any)
	newScratch func() any
	// spare lends scratch values to goroutines that are not workers, so
	// repeated Maps do not rebuild theirs; it has room for one per worker.
	spare chan any

	// mu orders sends on queue against Close, which closes the channel
	// and clears the field: a sender holds mu shared across its send,
	// Close takes it exclusively. A nil queue is a closed pool.
	mu sync.RWMutex
	wg sync.WaitGroup
}

// NewExecutor starts a pool of the given width (<= 0 selects
// GOMAXPROCS). newScratch, when non-nil, builds each worker's scratch
// value. Close the executor when done.
func NewExecutor(workers int, newScratch func() any) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{
		workers:    workers,
		queue:      make(chan func(scratch any), workers*queuePerWorker),
		newScratch: newScratch,
		spare:      make(chan any, workers),
	}
	queue := e.queue
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer e.wg.Done()
			e.withScratch(func(scratch any) {
				for fn := range queue {
					fn(scratch)
				}
			})
		}()
	}
	return e
}

// withScratch runs fn with a spare scratch value, or a new one when
// none is spare, and leaves the value spare afterwards if there is room.
func (e *Executor) withScratch(fn func(scratch any)) {
	var scratch any
	select {
	case scratch = <-e.spare:
	default:
		if e.newScratch != nil {
			scratch = e.newScratch()
		}
	}
	fn(scratch)
	select {
	case e.spare <- scratch:
	default:
	}
}

// Close stops the pool once the workers have drained the queue; it is
// idempotent. Map and Submit keep working on a closed executor: both
// run everything on the caller.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.queue != nil {
		close(e.queue)
		e.queue = nil
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Submit enqueues fn, blocking while the queue is full; work is never
// dropped. A task must not Submit to its own pool: with every worker
// blocked here nothing would drain the queue.
func (e *Executor) Submit(fn func(scratch any)) {
	e.mu.RLock()
	if e.queue == nil {
		e.mu.RUnlock()
		e.withScratch(fn)
		return
	}
	e.queue <- fn
	e.mu.RUnlock()
}

// mapBatch is one Map call: its participants claim runs of grain
// consecutive indices from next until the range is used up.
type mapBatch struct {
	fn       func(i int, scratch any) error
	n, grain int
	next     atomic.Int64
	left     sync.WaitGroup // counts indices not yet finished

	failIdx atomic.Int64 // lowest failing index so far
	mu      sync.Mutex
	err     error
}

// work claims and runs index runs until none are left. Runs are claimed
// in increasing order and an index is skipped only when it lies above
// one that already failed, so everything below the lowest failure runs.
func (b *mapBatch) work(scratch any) {
	for {
		lo := int(b.next.Add(int64(b.grain))) - b.grain
		if lo >= b.n {
			return
		}
		hi := min(lo+b.grain, b.n)
		for i := lo; i < hi && int64(i) <= b.failIdx.Load(); i++ {
			if err := b.fn(i, scratch); err != nil {
				b.mu.Lock()
				if int64(i) < b.failIdx.Load() {
					b.failIdx.Store(int64(i))
					b.err = err
				}
				b.mu.Unlock()
			}
		}
		b.left.Add(lo - hi)
	}
}

// Map runs fn(0..n-1) and waits for all of them, returning the error of
// the lowest failing index (indices above it may be skipped). The
// caller invites the workers and then works through the batch itself,
// so the batch finishes whether or not any worker joins: on a closed or
// nil executor Map is a sequential loop on the caller.
func (e *Executor) Map(n int, fn func(i int, scratch any) error) error {
	if n <= 0 {
		return nil
	}
	if e == nil {
		e = &Executor{}
	}
	// About four runs per participant evens out the load without
	// paying for the shared counter once per index.
	b := &mapBatch{fn: fn, n: n, grain: max(1, n/(4*(e.workers+1)))}
	b.failIdx.Store(math.MaxInt64)
	b.left.Add(n)
	// Invite one worker per run beyond the caller's first, without ever
	// blocking: Map runs inside pool tasks, where waiting for queue room
	// (or, hence TryRLock, for a Close in progress) could be waiting on
	// the calling worker. An invitation picked up after the batch is
	// used up claims nothing and returns.
	work := b.work
	if e.mu.TryRLock() {
		for h := min(e.workers, (n-1)/b.grain); h > 0; h-- {
			select {
			case e.queue <- work:
			default:
			}
		}
		e.mu.RUnlock()
	}
	e.withScratch(work)
	b.left.Wait()
	return b.err
}
