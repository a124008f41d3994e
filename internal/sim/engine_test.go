package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOWithinTimestamp(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5*Millisecond, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.Schedule(Millisecond, func() { ran = true })
	e.Cancel(id)
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	// Canceling twice is a no-op.
	e.Cancel(id)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, at := range []Time{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(3 * Millisecond)
	if len(ran) != 2 {
		t.Fatalf("ran %d events before deadline, want 2", len(ran))
	}
	if e.Now() != 3*Millisecond {
		t.Fatalf("clock after RunUntil = %v, want 3ms", e.Now())
	}
	e.RunUntil(10 * Millisecond)
	if len(ran) != 3 {
		t.Fatalf("ran %d events total, want 3", len(ran))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(Millisecond, func() { count++; e.Stop() })
	e.Schedule(2*Millisecond, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the loop: count = %d", count)
	}
	// Resume picks up where we left off.
	e.Run()
	if count != 2 {
		t.Fatalf("resume failed: count = %d", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.NewTicker(0, 10*Millisecond, func(now Time) {
		ticks = append(ticks, now)
	})
	e.RunUntil(35 * Millisecond)
	tk.Stop()
	e.RunUntil(100 * Millisecond)
	if len(ticks) != 4 { // 0, 10, 20, 30 ms
		t.Fatalf("tick count = %d, want 4 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		if at != Time(i)*10*Millisecond {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(0, Millisecond, func(Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", count)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromMilliseconds(1.5) != 1500*Microsecond {
		t.Fatal("FromMilliseconds")
	}
	if (2 * Second).Milliseconds() != 2000 {
		t.Fatal("Milliseconds")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds")
	}
	if (1500 * Millisecond).String() != "1.500s" {
		t.Fatalf("String = %q", (1500 * Millisecond).String())
	}
}

// TestEngineCancelEager pins the new Cancel contract: canceled events
// leave the queue immediately, so it never holds dead entries
// (the old lazy-deletion queue over-reported until the entry was
// popped).
func TestEngineCancelEager(t *testing.T) {
	e := NewEngine()
	ids := make([]EventID, 10)
	ran := 0
	for i := range ids {
		ids[i] = e.Schedule(Time(i+1)*Millisecond, func() { ran++ })
	}
	if len(e.heap) != 10 {
		t.Fatalf("queued = %d, want 10", len(e.heap))
	}
	// Cancel from the middle and both ends.
	for _, i := range []int{4, 0, 9} {
		e.Cancel(ids[i])
	}
	if len(e.heap) != 7 {
		t.Fatalf("queued after 3 cancels = %d, want 7", len(e.heap))
	}
	// Double-cancel stays a no-op.
	e.Cancel(ids[4])
	if len(e.heap) != 7 {
		t.Fatalf("queued after double cancel = %d, want 7", len(e.heap))
	}
	e.Run()
	if ran != 7 {
		t.Fatalf("ran %d events, want 7", ran)
	}
	if len(e.heap) != 0 {
		t.Fatalf("queued after Run = %d, want 0", len(e.heap))
	}
}

// TestEngineStaleEventID pins that an EventID from an executed event
// can never cancel the event that recycled its slot.
func TestEngineStaleEventID(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(Millisecond, func() {})
	e.Run() // executes and frees the slot
	ran := false
	e.Schedule(2*Millisecond, func() { ran = true }) // reuses the slot
	e.Cancel(stale)                                  // must not touch the new event
	e.Run()
	if !ran {
		t.Fatal("stale EventID canceled a recycled slot's event")
	}
}

// TestEngineCancelHeavyProperty schedules and cancels pseudo-randomly
// and checks that exactly the surviving events run, in order.
func TestEngineCancelHeavyProperty(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		e := NewEngine()
		type ev struct {
			id EventID
			at Time
		}
		var scheduled []ev
		ran := 0
		for _, d := range delays {
			at := Time(d) * Microsecond
			scheduled = append(scheduled, ev{e.Schedule(at, func() { ran++ }), at})
		}
		want := len(scheduled)
		for i, s := range scheduled {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(s.id)
				want--
			}
		}
		if len(e.heap) != want {
			return false
		}
		e.Run()
		return ran == want && len(e.heap) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sinkFn is a pre-built no-op callback so alloc guards don't measure
// the cost of constructing the closure under test.
var sinkFn = func() {}

// TestScheduleZeroAllocSteadyState guards the free-list design: once
// the heap and slot arrays have grown, Schedule+Cancel and
// Schedule+dispatch allocate nothing.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ { // grow heap and slots past test peak
		e.Schedule(Millisecond, sinkFn)
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		id := e.Schedule(e.Now()+Millisecond, sinkFn)
		e.Cancel(id)
	}); avg != 0 {
		t.Fatalf("Schedule+Cancel allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.Schedule(e.Now()+Millisecond, sinkFn)
		e.RunUntil(e.Now() + Millisecond)
	}); avg != 0 {
		t.Fatalf("Schedule+dispatch allocates %v/op, want 0", avg)
	}
}

// TestTickerZeroAllocSteadyState guards the cached tick closure + slot
// reuse: a running ticker allocates nothing per tick.
func TestTickerZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.NewTicker(0, Millisecond, func(Time) { ticks++ })
	e.RunUntil(10 * Millisecond) // warm up
	if avg := testing.AllocsPerRun(200, func() {
		e.RunUntil(e.Now() + Millisecond)
	}); avg != 0 {
		t.Fatalf("ticker tick allocates %v/op, want 0", avg)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// Property: for any set of event delays, the engine dispatches them in
// nondecreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			at := Time(d) * Microsecond
			e.Schedule(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
