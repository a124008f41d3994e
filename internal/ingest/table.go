package ingest

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"sync"
)

// Table is a tier's session table; the package doc's "Session table"
// has its contract. The table never locks an entry, so a tier may call
// it while holding its own entry's lock.
type Table[E comparable] struct {
	mint  string // fmt format of a minted ID, one integer verb
	bound int    // <= 0 keeps every entry
	drop  func(E)

	mu       sync.Mutex
	entries  map[string]*tableSlot[E]
	finished list.List // of *tableSlot[E], earliest Finish first
	minted   int
	admitted uint64
}

type tableSlot[E comparable] struct {
	id    string
	e     E
	seq   uint64 // admission order
	state State  // StateActive until Finish
	at    *list.Element
}

// NewTable returns an empty table minting IDs from mint and holding
// bound entries. drop is called with each entry the bound pushes out,
// once the admission has released the table's lock.
func NewTable[E comparable](mint string, bound int, drop func(E)) *Table[E] {
	return &Table[E]{mint: mint, bound: bound, drop: drop, entries: map[string]*tableSlot[E]{}}
}

// Admit returns the entry for id (minted when empty) and the id. A held
// live or done entry comes back with fresh false; otherwise newEntry(id)
// is stored and evicts down to the bound. newEntry runs under the
// table's lock, so it only builds the entry.
func (t *Table[E]) Admit(id string, newEntry func(id string) E) (e E, _ string, fresh bool) {
	t.mu.Lock()
	for id == "" {
		t.minted++
		if id = fmt.Sprintf(t.mint, t.minted); t.entries[id] != nil {
			id = "" // a client named a session so
		}
	}
	if old := t.entries[id]; old != nil {
		if old.state != StateFailed {
			t.mu.Unlock()
			return old.e, id, false
		}
		t.finished.Remove(old.at)
	}
	t.admitted++
	s := &tableSlot[E]{id: id, e: newEntry(id), seq: t.admitted, state: StateActive}
	t.entries[id] = s
	var gone []E
	for t.bound > 0 && len(t.entries) > t.bound && t.finished.Len() > 0 {
		g := t.finished.Remove(t.finished.Front()).(*tableSlot[E])
		delete(t.entries, g.id)
		gone = append(gone, g.e)
	}
	t.mu.Unlock()
	for _, g := range gone {
		t.drop(g)
	}
	return s.e, id, true
}

// Finish records how the live entry e held under id ended, StateDone or
// StateFailed; it does nothing when e is not held or not live.
func (t *Table[E]) Finish(id string, e E, how State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.entries[id]; s != nil && s.e == e && s.state == StateActive {
		s.state = how
		s.at = t.finished.PushBack(s)
	}
}

// Get returns the entry held under id, or the zero E.
func (t *Table[E]) Get(id string) (e E) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.entries[id]; s != nil {
		e = s.e
	}
	return e
}

// List returns the held entries in admission order.
func (t *Table[E]) List() []E {
	t.mu.Lock()
	slots := make([]*tableSlot[E], 0, len(t.entries))
	for _, s := range t.entries {
		slots = append(slots, s)
	}
	t.mu.Unlock()
	// A slot's seq and entry never change once it is stored.
	slices.SortFunc(slots, func(a, b *tableSlot[E]) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]E, len(slots))
	for i, s := range slots {
		out[i] = s.e
	}
	return out
}

// Len counts the live entries and all the entries held.
func (t *Table[E]) Len() (live, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries) - t.finished.Len(), len(t.entries)
}
