// Package sim provides a deterministic discrete-event simulation engine
// used by every substrate in the Domino reproduction: the 5G RAN model,
// the network paths, and the WebRTC media stack all schedule their work
// as timestamped events on a single Engine.
//
// Time is modeled as integer microseconds (Time). All randomness flows
// through the seeded RNG in rng.go, so a simulation run is a pure
// function of its configuration and seed.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in microseconds since the start of the
// run. Microsecond resolution comfortably resolves 5G slot boundaries
// (500 µs at 30 kHz SCS) and sub-slot PHY events.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// MaxTime is the largest representable simulation timestamp.
const MaxTime Time = math.MaxInt64

// Milliseconds returns the timestamp as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the timestamp as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMilliseconds converts a float64 millisecond count to a Time.
func FromMilliseconds(ms float64) Time { return Time(ms * float64(Millisecond)) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// The scheduler stores events in two flat arrays instead of a
// pointer-per-event container/heap: heapEntry values ordered by
// (at, seq) in an implicit 4-ary heap, and eventSlot values holding the
// callbacks. Slots are recycled through a free list, so steady-state
// scheduling allocates nothing; a generation counter per slot makes
// recycled EventIDs unambiguous. The 4-ary layout halves the tree depth
// of the binary heap and keeps sift loops inside one or two cache lines
// of the entry array.

// heapEntry is one scheduled occurrence in the priority queue. seq
// breaks ties so that events scheduled earlier at the same timestamp
// run first (deterministic FIFO ordering within a timestamp).
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// eventSlot holds a callback and its bookkeeping. gen starts at 1 and
// is bumped every time the slot is freed, so a stale EventID (executed
// or canceled event) can never match a recycled slot. heapPos is the
// slot's current index in the heap array, -1 while free.
//
// A slot carries either fn (Schedule) or argFn+arg (ScheduleArg); the
// latter lets hot paths dispatch a long-lived callback against a
// per-event argument without allocating a fresh closure per event.
type eventSlot struct {
	fn       func()
	argFn    func(any)
	arg      any
	gen      uint32
	heapPos  int32
	nextFree int32
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is inert: Cancel of it is a no-op (slot generations start at
// 1, so a zero generation never matches). An EventID is only
// meaningful on the Engine that issued it — slot indices and
// generations are per-engine, so canceling it on another engine could
// silently hit an unrelated event there.
type EventID struct {
	slot int32
	gen  uint32
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are deterministic single-goroutine
// programs by design.
type Engine struct {
	now   Time
	heap  []heapEntry
	slots []eventSlot
	// freeHead is the head of the free-slot list, -1 when empty.
	freeHead int32
	seq      uint64
	// stopped is set by Stop and halts the run loop after the current
	// event completes.
	stopped bool
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{freeHead: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves the entry at index i toward the root until the heap
// property holds, updating slot positions along the way.
func (e *Engine) siftUp(i int) {
	ent := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(ent, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slots[e.heap[i].slot].heapPos = int32(i)
		i = p
	}
	e.heap[i] = ent
	e.slots[ent.slot].heapPos = int32(i)
}

// siftDown moves the entry at index i toward the leaves until the heap
// property holds.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	ent := e.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !e.less(e.heap[best], ent) {
			break
		}
		e.heap[i] = e.heap[best]
		e.slots[e.heap[i].slot].heapPos = int32(i)
		i = best
	}
	e.heap[i] = ent
	e.slots[ent.slot].heapPos = int32(i)
}

// heapRemove deletes the entry at heap index i and returns it.
func (e *Engine) heapRemove(i int) heapEntry {
	ent := e.heap[i]
	n := len(e.heap) - 1
	if i != n {
		moved := e.heap[n]
		e.heap = e.heap[:n]
		e.heap[i] = moved
		e.slots[moved.slot].heapPos = int32(i)
		e.siftDown(i)
		if e.heap[i].slot == moved.slot {
			e.siftUp(i)
		}
	} else {
		e.heap = e.heap[:n]
	}
	return ent
}

// allocSlot takes a slot off the free list (or grows the slot array)
// and installs fn in it.
func (e *Engine) allocSlot(fn func()) int32 {
	if i := e.freeHead; i >= 0 {
		s := &e.slots[i]
		e.freeHead = s.nextFree
		s.fn = fn
		return i
	}
	e.slots = append(e.slots, eventSlot{fn: fn, gen: 1, heapPos: -1})
	return int32(len(e.slots) - 1)
}

// freeSlot returns a slot to the free list, invalidating every EventID
// issued for its current generation.
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	s.gen++
	s.heapPos = -1
	s.nextFree = e.freeHead
	e.freeHead = i
}

// Schedule runs fn at absolute time at. Scheduling in the past (before
// Now) panics: it always indicates a modeling bug, and silently
// reordering time would destroy causality in the trace data.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	si := e.allocSlot(fn)
	e.heap = append(e.heap, heapEntry{at: at, seq: e.seq, slot: si})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return EventID{slot: si, gen: e.slots[si].gen}
}

// ScheduleArg runs fn(arg) at absolute time at. It is the zero-alloc
// variant of Schedule for per-event work: the caller builds fn once
// (e.g. per link or per HARQ entity) and passes the varying state as
// arg, avoiding a closure allocation on every call. Pointer-shaped args
// do not allocate when boxed into the interface. Ordering semantics are
// identical to Schedule (same timestamp+sequence queue).
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	si := e.allocSlot(nil)
	s := &e.slots[si]
	s.argFn = fn
	s.arg = arg
	e.heap = append(e.heap, heapEntry{at: at, seq: e.seq, slot: si})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return EventID{slot: si, gen: s.gen}
}

// Cancel removes a scheduled event from the queue immediately.
// Canceling an already-executed or already-canceled event is a no-op:
// the slot generation no longer matches. Because removal is eager, a
// canceled event costs nothing at dispatch time and never sits in the
// queue. The id must come from this engine's Schedule/ScheduleArg
// (see EventID).
func (e *Engine) Cancel(id EventID) {
	if id.slot < 0 || int(id.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[id.slot]
	if s.gen != id.gen || s.heapPos < 0 {
		return
	}
	e.heapRemove(int(s.heapPos))
	e.freeSlot(id.slot)
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// step dispatches the next event. It reports false when the queue is
// empty. The event's slot is freed before its callback runs, so a
// callback that schedules (tickers do) reuses the slot it fired from.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ent := e.heapRemove(0)
	s := &e.slots[ent.slot]
	fn, argFn, arg := s.fn, s.argFn, s.arg
	e.freeSlot(ent.slot)
	e.now = ent.at
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// RunUntil executes events in timestamp order until the queue is empty,
// Stop is called, or the next event would run strictly after deadline.
// The clock is left at min(deadline, time of last executed event) —
// i.e. after RunUntil returns normally, Now() == deadline.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.heap) == 0 || e.heap[0].at > deadline {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// Ticker repeatedly schedules fn every interval until canceled. The
// callback receives the tick time. Tickers are the backbone of the
// slot-level RAN loop and the 50 ms WebRTC stats collector.
type Ticker struct {
	engine   *Engine
	interval Time
	fn       func(Time)
	// tickFn caches the t.tick method value so rescheduling does not
	// allocate a fresh closure every tick; combined with the engine's
	// slot free list, a steady ticker allocates nothing after start.
	tickFn  func()
	id      EventID
	stopped bool
}

// NewTicker starts a ticker whose first tick fires at start and then
// every interval thereafter. interval must be positive.
func (e *Engine) NewTicker(start, interval Time, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tickFn = t.tick
	t.id = e.Schedule(start, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	now := t.engine.Now()
	t.fn(now)
	if !t.stopped {
		// The slot this tick fired from was freed just before dispatch,
		// so this reschedule reuses it via the free list.
		t.id = t.engine.Schedule(now+t.interval, t.tickFn)
	}
}

// Stop cancels the ticker. A stopped ticker never fires again.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.Cancel(t.id)
}
