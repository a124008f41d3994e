package ingest

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// tableEntry is a test entry: the ID it was stored under and which
// admission stored it, so a replacement is told from the entry it
// replaced.
type tableEntry struct {
	id  string
	gen int
}

// tableOp is one step of a TestTable case: an admission of admit ("" to
// mint) answered with want and fresh, or, with how set, the Finish of
// the entry held under finish.
type tableOp struct {
	admit, want string
	fresh       bool
	finish      string
	how         State
}

func admitOp(id, want string, fresh bool) tableOp {
	return tableOp{admit: id, want: want, fresh: fresh}
}
func finishOp(id string, how State) tableOp { return tableOp{finish: id, how: how} }

// failCycles fails and re-admits one ID n times.
func failCycles(id string, n int) []tableOp {
	ops := []tableOp{admitOp(id, id, true)}
	for i := 0; i < n; i++ {
		ops = append(ops, finishOp(id, StateFailed), admitOp(id, id, true))
	}
	return ops
}

func TestTable(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound int
		ops   []tableOp
		// What the table holds at the end: the listing, in admission
		// order, and how many of those entries are live.
		list []string
		live int
		// dropped is every entry the drop callback saw, in call order;
		// maxQueued bounds the finished queue at every step.
		dropped   []string
		maxQueued int
	}{{
		name: "minting skips an ID a client named",
		ops: []tableOp{
			admitOp("s0001", "s0001", true),
			admitOp("", "s0002", true),
			admitOp("", "s0003", true),
			finishOp("s0002", StateFailed),
			admitOp("", "s0004", true), // a failed entry still holds its ID against minting
		},
		list: []string{"s0001", "s0002", "s0003", "s0004"}, live: 3, maxQueued: 1,
	}, {
		name: "a held live or done entry is returned, not replaced",
		ops: []tableOp{
			admitOp("a", "a", true),
			admitOp("a", "a", false),
			finishOp("a", StateDone),
			admitOp("a", "a", false),
			finishOp("a", StateFailed), // a finished entry finishes once
			admitOp("a", "a", false),
		},
		list: []string{"a"}, live: 0, maxQueued: 1,
	}, {
		name: "a failed entry is replaced and leaves the finished queue",
		ops: []tableOp{
			admitOp("a", "a", true),
			admitOp("b", "b", true),
			finishOp("a", StateFailed),
			admitOp("a", "a", true),
		},
		list: []string{"b", "a"}, live: 2, maxQueued: 1,
	}, {
		name:  "the bound drops the earliest finished, in finish order, never a live entry",
		bound: 3,
		ops: []tableOp{
			admitOp("a", "a", true),
			admitOp("b", "b", true),
			admitOp("c", "c", true),
			admitOp("d", "d", true), // four live over a bound of three: nothing can go
			finishOp("c", StateDone),
			finishOp("a", StateFailed),
			finishOp("d", StateDone),
			admitOp("e", "e", true), // two over: c and a go, d stays
			admitOp("f", "f", true), // one over: d goes
		},
		list: []string{"b", "e", "f"}, live: 3, dropped: []string{"c", "a", "d"}, maxQueued: 3,
	}, {
		name:  "a replaced entry is not dropped again",
		bound: 2,
		ops: []tableOp{
			admitOp("a", "a", true),
			admitOp("b", "b", true),
			finishOp("a", StateFailed),
			admitOp("a", "a", true),
			finishOp("b", StateDone),
			admitOp("c", "c", true),
		},
		list: []string{"a", "c"}, live: 2, dropped: []string{"b"}, maxQueued: 1,
	}, {
		name:  "fail and replace cycles keep the queue at one entry",
		bound: 4,
		ops:   failCycles("x", 10_000),
		list:  []string{"x"}, live: 1, maxQueued: 1,
	}} {
		t.Run(c.name, func(t *testing.T) {
			var dropped []string
			tb := NewTable("s%04d", c.bound, func(e *tableEntry) { dropped = append(dropped, e.id) })
			maxQueued := 0
			for i, op := range c.ops {
				if op.how != "" {
					tb.Finish(op.finish, tb.Get(op.finish), op.how)
				} else {
					held := tb.Get(op.admit)
					e, id, fresh := tb.Admit(op.admit, func(id string) *tableEntry { return &tableEntry{id: id, gen: i} })
					if id != op.want || fresh != op.fresh || e.id != id || fresh != (e.gen == i) || !fresh && e != held {
						t.Fatalf("op %d: Admit(%q) = %+v, %q, fresh %v; want %q, fresh %v", i, op.admit, e, id, fresh, op.want, op.fresh)
					}
					if live, total := tb.Len(); c.bound > 0 && total > c.bound && total != live {
						t.Fatalf("op %d: %d entries, %d live, after an admission under a bound of %d", i, total, live, c.bound)
					}
				}
				maxQueued = max(maxQueued, tb.finished.Len())
			}
			var list []string
			for _, e := range tb.List() {
				list = append(list, e.id)
			}
			if !slices.Equal(list, c.list) {
				t.Errorf("List = %v, want %v", list, c.list)
			}
			if live, total := tb.Len(); live != c.live || total != len(c.list) || total-live != tb.finished.Len() {
				t.Errorf("Len = %d live of %d, %d queued; want %d live of %d", live, total, tb.finished.Len(), c.live, len(c.list))
			}
			if !slices.Equal(dropped, c.dropped) {
				t.Errorf("dropped %v, want %v", dropped, c.dropped)
			}
			if maxQueued > c.maxQueued {
				t.Errorf("finished queue reached %d entries, want at most %d", maxQueued, c.maxQueued)
			}
		})
	}
	t.Run("concurrent admit and finish", testTableConcurrent)
}

// testTableConcurrent runs eight admitters at once — under -race in CI —
// each finishing what it admits, over IDs that recur so failed entries
// get replaced. With fewer entries live than the bound, no admission
// leaves the table over it, and the entry that stayed live throughout is
// still there at the end.
func testTableConcurrent(t *testing.T) {
	const bound, admitters, each = 16, 8, 300
	tb := NewTable("s%04d", bound, func(*tableEntry) {})
	tb.Admit("keep", func(id string) *tableEntry { return &tableEntry{id: id} })
	var wg sync.WaitGroup
	for a := 0; a < admitters; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e, id, fresh := tb.Admit(fmt.Sprintf("a%d-%d", a, i%50), func(id string) *tableEntry { return &tableEntry{id: id} })
				if !fresh {
					continue // the ID's previous entry is done and still held
				}
				if _, total := tb.Len(); total > bound {
					t.Errorf("%d entries, bound %d", total, bound)
				}
				how := StateDone
				if i%3 == 0 {
					how = StateFailed
				}
				tb.Finish(id, e, how)
			}
		}(a)
	}
	wg.Wait()
	if live, total := tb.Len(); live != 1 || total > bound || tb.Get("keep") == nil {
		t.Fatalf("%d entries, %d live, keep held %v; want keep alone live within %d", total, live, tb.Get("keep") != nil, bound)
	}
}
