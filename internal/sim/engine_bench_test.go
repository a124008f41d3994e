package sim

import (
	"testing"
)

// The scheduler microbenchmarks process a fixed batch of events per
// iteration so that even a -benchtime=1x run (`make bench`) yields a
// meaningful events/s figure.

const benchEvents = 1 << 17 // 131072 events per iteration

// BenchmarkEngineSchedule measures raw schedule+dispatch churn with a
// scattered (LCG-permuted) timestamp pattern, the general case for the
// heap.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		lcg := uint64(12345)
		for j := 0; j < benchEvents; j++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			at := base + Time(lcg%1000)*Microsecond
			e.Schedule(at, sinkFn)
		}
		e.Run()
	}
	b.ReportMetric(float64(benchEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineTicker measures the ticker steady state — the
// simulator's dominant event source (slot loops, frame and stats
// timers): 16 tickers with co-prime-ish intervals firing across one
// simulated second per iteration.
func BenchmarkEngineTicker(b *testing.B) {
	e := NewEngine()
	intervals := []Time{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}
	events := 0
	for _, iv := range intervals {
		e.NewTicker(0, iv*Microsecond, func(Time) { events++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	events = 0
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 100*Millisecond)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineScheduleCancel measures the eager-removal Cancel path:
// every scheduled event is canceled before it fires (the RRC
// inactivity-timer pattern).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	ids := make([]EventID, benchEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := range ids {
			ids[j] = e.Schedule(base+Time(j%997)*Microsecond, sinkFn)
		}
		for j := range ids {
			e.Cancel(ids[j])
		}
		if len(e.heap) != 0 {
			b.Fatal("cancel left events behind")
		}
	}
	b.ReportMetric(float64(benchEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
