package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecutorMapDeterministic pins the determinism contract: results
// keyed by index are identical at any pool width, including zero-ish
// widths and a closed pool.
func TestExecutorMapDeterministic(t *testing.T) {
	const n = 1000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 8} {
		e := NewExecutor(workers, nil)
		got := make([]int, n)
		if err := e.Map(n, func(i int, _ any) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		e.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ", workers)
		}
	}
}

func TestExecutorMapLowestError(t *testing.T) {
	e := NewExecutor(4, nil)
	defer e.Close()
	var ran [512]atomic.Bool
	err := e.Map(512, func(i int, _ any) error {
		ran[i].Store(true)
		if i == 100 || i == 400 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 100" {
		t.Fatalf("err = %v, want fail 100", err)
	}
	// Everything below the lowest failure must have run.
	for i := 0; i <= 100; i++ {
		if !ran[i].Load() {
			t.Fatalf("index %d below lowest failure did not run", i)
		}
	}
}

// TestExecutorNestedMap is the deadlock regression test: Map from
// inside a Map task on the same pool must complete because callers
// help instead of sleeping.
func TestExecutorNestedMap(t *testing.T) {
	e := NewExecutor(2, nil)
	defer e.Close()
	done := make(chan error, 1)
	go func() {
		var total atomic.Int64
		done <- e.Map(8, func(i int, _ any) error {
			return e.Map(16, func(j int, _ any) error {
				total.Add(1)
				return nil
			})
		})
		if got := total.Load(); got != 8*16 {
			t.Errorf("inner iterations = %d, want %d", got, 8*16)
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

// TestExecutorScratchReuse checks that scratch values are created at
// most once per participating goroutine and actually handed to tasks.
func TestExecutorScratchReuse(t *testing.T) {
	var created atomic.Int64
	e := NewExecutor(3, func() any {
		created.Add(1)
		return new(int)
	})
	defer e.Close()
	var used atomic.Int64
	for round := 0; round < 5; round++ {
		if err := e.Map(64, func(i int, scratch any) error {
			counter, ok := scratch.(*int)
			if !ok {
				return errors.New("scratch has wrong type")
			}
			*counter++
			used.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if used.Load() != 5*64 {
		t.Fatalf("tasks run = %d", used.Load())
	}
	// 3 workers + 1 helper; sync.Pool may drop values under GC but
	// never in a tight loop like this without pressure — allow slack
	// anyway, the point is "not one per task".
	if c := created.Load(); c > 16 {
		t.Fatalf("scratch created %d times for %d tasks", c, 5*64)
	}
}

func TestExecutorSubmit(t *testing.T) {
	e := NewExecutor(2, func() any { return new(int) })
	var wg sync.WaitGroup
	var total atomic.Int64
	wg.Add(100)
	for i := 0; i < 100; i++ {
		e.Submit(func(scratch any) {
			if _, ok := scratch.(*int); !ok {
				t.Error("scratch has wrong type")
			}
			total.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if total.Load() != 100 {
		t.Fatalf("submitted tasks run = %d", total.Load())
	}
	e.Close()
	// Submit after Close runs synchronously; nothing is dropped.
	ran := false
	e.Submit(func(any) { ran = true })
	if !ran {
		t.Fatal("post-Close Submit did not run")
	}
}

func TestExecutorMapAfterClose(t *testing.T) {
	e := NewExecutor(4, nil)
	e.Close()
	e.Close() // idempotent
	got := make([]int, 100)
	if err := e.Map(100, func(i int, _ any) error {
		got[i] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("index %d not run after Close", i)
		}
	}
}

// TestExecutorConcurrentMaps runs independent batches from many
// goroutines at once — the pool is shared infrastructure, not
// per-batch — and is a race-detector workout for the deque/parking
// paths.
func TestExecutorConcurrentMaps(t *testing.T) {
	e := NewExecutor(4, nil)
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sum := make([]int64, 200)
			if err := e.Map(200, func(i int, _ any) error {
				sum[i] = int64(g*1000 + i)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			for i := range sum {
				if sum[i] != int64(g*1000+i) {
					t.Errorf("goroutine %d index %d corrupted", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBatchExecutor measures Map dispatch throughput over a fleet
// of small CPU-bound tasks (the dominod/experiments shape: many
// sessions' window evaluations through shared per-core scratch). Its
// allocations are not a contract: a Map of 4 096 tasks read 3–5 allocs
// and 818–2 200 B across six runs of one tree, by how the pool's
// goroutines happened to be scheduled.
func BenchmarkBatchExecutor(b *testing.B) {
	const tasks = 4096
	e := NewExecutor(0, func() any { return make([]uint64, 256) })
	defer e.Close()
	out := make([]uint64, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Map(tasks, func(j int, scratch any) error {
			buf := scratch.([]uint64)
			acc := uint64(j)
			for k := range buf {
				acc = acc*6364136223846793005 + 1442695040888963407
				buf[k] = acc
			}
			out[j] = acc
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// blockWorkers occupies every worker of e with a task that waits for
// the returned release to be closed and then runs then; it returns once
// all of them are running.
func blockWorkers(e *Executor, then func()) (release chan struct{}) {
	release = make(chan struct{})
	started := make(chan struct{})
	for i := 0; i < e.workers; i++ {
		e.Submit(func(any) {
			started <- struct{}{}
			<-release
			then()
		})
	}
	for i := 0; i < e.workers; i++ {
		<-started
	}
	return release
}

// saturate fills e's queue to its bound and parks extra more Submits
// behind it, reporting on the returned channel as each one gets through.
// The workers must be blocked, or the queue would not stay full.
func saturate(t *testing.T, e *Executor, extra int, task func(any)) (through chan struct{}) {
	for i := 0; i < cap(e.queue); i++ {
		e.Submit(task)
	}
	if len(e.queue) != e.workers*queuePerWorker {
		t.Fatalf("queue holds %d tasks, want the bound %d", len(e.queue), e.workers*queuePerWorker)
	}
	through = make(chan struct{}, extra)
	for i := 0; i < extra; i++ {
		go func() {
			e.Submit(task)
			through <- struct{}{}
		}()
	}
	select {
	case <-through:
		t.Fatal("Submit past the bound did not block")
	case <-time.After(50 * time.Millisecond):
	}
	return through
}

// TestExecutorSubmitBackpressure reaches the queue's bound: with the
// workers blocked and the queue full the next Submit waits, completes
// once a worker frees, and nothing submitted is lost.
func TestExecutorSubmitBackpressure(t *testing.T) {
	e := NewExecutor(2, nil)
	var ran atomic.Int64
	count := func(any) { ran.Add(1) }
	release := blockWorkers(e, func() { ran.Add(1) })
	through := saturate(t, e, 1, count)
	close(release)
	select {
	case <-through:
	case <-time.After(30 * time.Second):
		t.Fatal("blocked Submit never completed")
	}
	e.Close() // drains what is still queued
	if got, want := ran.Load(), int64(2+2*queuePerWorker+1); got != want {
		t.Fatalf("tasks run = %d, want %d", got, want)
	}
}

// TestExecutorNestedMapWithFullQueue runs Maps from inside pool tasks
// while the queue is full and more Submits wait behind it. Nothing
// drains the queue until those Maps return, so an invitation that
// waited for room would hang the pool.
func TestExecutorNestedMapWithFullQueue(t *testing.T) {
	e := NewExecutor(2, nil)
	var ran, mapped atomic.Int64
	nested := func() {
		if err := e.Map(64, func(int, any) error {
			mapped.Add(1)
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
	release := blockWorkers(e, nested)
	const extra = 3
	through := saturate(t, e, extra, func(any) { ran.Add(1) })
	nested() // from outside the pool too
	close(release)
	for i := 0; i < extra; i++ {
		select {
		case <-through:
		case <-time.After(30 * time.Second):
			t.Fatal("pool hung with a full queue")
		}
	}
	e.Close()
	if got := mapped.Load(); got != 3*64 {
		t.Fatalf("mapped indices = %d, want %d", got, 3*64)
	}
	if got, want := ran.Load(), int64(2*queuePerWorker+extra); got != want {
		t.Fatalf("submitted tasks run = %d, want %d", got, want)
	}
}
