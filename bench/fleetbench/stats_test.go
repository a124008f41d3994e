package main

import (
	"testing"
	"time"
)

func TestPercentilesAreExactNearestRank(t *testing.T) {
	var s samples
	// 1..100 ms, shuffled in: the p-th percentile of 1..100 is exactly p.
	for i := 0; i < 100; i++ {
		s.add(time.Duration((i*37)%100+1) * time.Millisecond)
	}
	if s.count() != 100 {
		t.Fatalf("count %d, want 100", s.count())
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
		if got := s.percentile(p); got != p {
			t.Errorf("p%.0f = %v ms, want %v", p, got, p)
		}
	}
	// Between ranks the percentile is a recorded value, never an
	// interpolation: p99.5 of 100 samples is the 100th.
	if got := s.percentile(99.5); got != 100 {
		t.Errorf("p99.5 = %v ms, want the largest sample", got)
	}
	var empty samples
	if empty.percentile(50) != 0 || empty.count() != 0 {
		t.Error("an empty series must report 0 with count 0")
	}
	var three samples
	for _, d := range []int{30, 10, 20} {
		three.add(time.Duration(d) * time.Millisecond)
	}
	if got := three.percentile(50); got != 20 {
		t.Errorf("median of 10,20,30 = %v, want 20", got)
	}
}

func TestSpanSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "backend", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "backend", Start: 20, End: 50},   // overlaps span 2
		{ID: 4, Parent: 1, Name: "backend", Start: 90, End: 120},  // overruns the parent
		{ID: 5, Parent: 3, Name: "dial", Start: 25, End: 35},      // grandchild: not the handler's child
		{ID: 6, Name: "other", Start: 0, End: 40},                 // no children
		{ID: 7, Parent: 6, Name: "outside", Start: 200, End: 300}, // entirely outside its parent
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the handler: 50 of 100.
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 40, 7: 100} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	tot := totalsByName(spans)["backend"]
	if tot.Calls != 3 || tot.BusyNs != 80 || tot.SelfNs != 70 {
		t.Errorf("backend totals %+v, want 3 calls, 80 busy, 70 self", tot)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin(0, 0, "x")
	if id != 0 || r.end(id, 1) != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder must hand out span 0 and keep nothing")
	}
	r = newRecorder()
	parent := r.begin(0, 1, "parent")
	child := r.begin(parent, 1, "child")
	r.end(child, 3)
	open := r.begin(parent, 1, "never closed")
	r.end(parent, 0)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != parent || got[1].N != 3 {
		t.Fatalf("snapshot %+v: want the two closed spans, child under parent with n=3", got)
	}
	_ = open
}
