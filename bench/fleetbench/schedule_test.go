package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestArrivalsAreSeededAndSized(t *testing.T) {
	a := arrivals(7, 12, 5*time.Second)
	if !reflect.DeepEqual(a, arrivals(7, 12, 5*time.Second)) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 12, 5*time.Second)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != 60 {
		t.Fatalf("%d arrivals at 12/s over 5 s, want 60", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("arrivals are not in time order")
	}
	if a[0] < 0 || a[len(a)-1] >= 5*time.Second {
		t.Fatalf("arrivals outside the window: first %v last %v", a[0], a[len(a)-1])
	}
	// Poisson gaps are not even: an evenly paced schedule would have
	// every gap at 83 ms.
	short := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] < 20*time.Millisecond {
			short++
		}
	}
	if short == 0 {
		t.Fatal("no two arrivals within 20 ms of each other: the schedule has no bursts")
	}
}

// An open loop times each request from when it was due. A stalled
// server therefore shows in the latency of the requests queued behind
// the stall, although each of those is answered at once when finally
// sent.
func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	// One session per request, due every 20 ms, one sender.
	t0 := time.Now().Add(10 * time.Millisecond)
	first := make([]op, 10)
	for i := range first {
		first[i] = op{Due: t0.Add(time.Duration(i) * 20 * time.Millisecond), Session: i}
	}
	fromDue, fromSend := make([]time.Duration, len(first)), make([]time.Duration, len(first))
	newOpenLoop(first).run(1, func(_ int, o op) (op, bool) {
		sent := time.Now()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return op{}, false
		}
		resp.Body.Close()
		fromDue[o.Session], fromSend[o.Session] = time.Since(o.Due), time.Since(sent)
		return op{}, false
	})

	if fromDue[2] < stall {
		t.Fatalf("the stalled request took %v from its due time, want at least %v", fromDue[2], stall)
	}
	// Request 3 was due 20 ms after request 2 and could only be sent once
	// the stall was over: about 180 ms of waiting, though the server
	// answered it immediately.
	if fromDue[3] < stall-40*time.Millisecond {
		t.Fatalf("the request behind the stall shows %v from its due time, want about %v", fromDue[3], stall-20*time.Millisecond)
	}
	if fromSend[3] > stall/2 {
		t.Fatalf("the request behind the stall took %v from send; the server should have answered at once", fromSend[3])
	}
	// The backlog drains: the last request waited far less than the one
	// right behind the stall.
	if fromDue[9] > fromDue[3]/2 {
		t.Fatalf("the last request still shows %v from its due time (the one behind the stall: %v); the backlog should have drained", fromDue[9], fromDue[3])
	}
}

// Steps of one session never overlap and run in order, however many
// sessions are interleaved on however few senders; and no more than
// `senders` operations are ever in flight.
func TestOpenLoopKeepsSessionOrderUnderTheSenderCap(t *testing.T) {
	const sessions, steps, cap = 12, 6, 2
	t0 := time.Now()
	first := make([]op, sessions)
	for i := range first {
		first[i] = op{Due: t0.Add(time.Duration(i) * time.Millisecond), Session: i}
	}
	var mu sync.Mutex
	next := make([]int, sessions)     // the step each session must run next
	running := make([]bool, sessions) // whether a step of the session is in flight
	inFlight, peak := 0, 0
	newOpenLoop(first).run(cap, func(_ int, o op) (op, bool) {
		mu.Lock()
		if running[o.Session] {
			t.Errorf("session %d: step %d started while another step was in flight", o.Session, o.Step)
		}
		if next[o.Session] != o.Step {
			t.Errorf("session %d: ran step %d, want step %d", o.Session, o.Step, next[o.Session])
		}
		running[o.Session] = true
		next[o.Session]++
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()

		time.Sleep(time.Millisecond)

		mu.Lock()
		running[o.Session] = false
		inFlight--
		mu.Unlock()
		if o.Step == steps-1 {
			return op{}, false
		}
		// Due at once: the later steps of every session compete.
		return op{Due: o.Due, Session: o.Session, Step: o.Step + 1}, true
	})
	for s, n := range next {
		if n != steps {
			t.Errorf("session %d ran %d steps, want %d", s, n, steps)
		}
	}
	if peak > cap {
		t.Errorf("%d operations in flight at once, cap is %d", peak, cap)
	}
}
