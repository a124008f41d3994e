package core

import (
	"fmt"
	"reflect"
	"testing"
)

// TestIndexColumnsDeclaredOnce holds newIndex's group list to the
// struct: every slice field of indexedTrace, and every slice inside an
// array field, is a time, value or cumulative column of exactly one
// series group. A column left out would keep its samples through reset
// and eviction while its group's other columns move on, misaligning the
// series silently; one listed twice would be shifted twice.
func TestIndexColumnsDeclaredOnce(t *testing.T) {
	scratch := map[string]bool{"dciRows": true} // not a series: fillDCI's per-run row lists

	ix := newIndex(DetectorConfig{}, false)
	registered := map[uintptr]int{}
	for gi := range ix.groups {
		g := &ix.groups[gi]
		if g.at == nil {
			t.Fatalf("group %d has no time column", gi)
		}
		registered[reflect.ValueOf(g.at).Pointer()]++
		for _, c := range append(append([]column(nil), g.values...), g.cums...) {
			v := reflect.ValueOf(c)
			for v.Kind() == reflect.Struct { // cumCol embeds col, col holds the field's address
				v = v.Field(0)
			}
			registered[v.Pointer()]++
		}
	}

	var walk func(v reflect.Value, name string)
	walk = func(v reflect.Value, name string) {
		switch v.Kind() {
		case reflect.Slice:
			if n := registered[v.UnsafeAddr()]; n != 1 {
				t.Errorf("column %s is in %d series groups, want 1", name, n)
			}
			delete(registered, v.UnsafeAddr())
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", name, i))
			}
		}
	}
	st := reflect.ValueOf(ix).Elem()
	for i := 0; i < st.NumField(); i++ {
		if name := st.Type().Field(i).Name; !scratch[name] {
			walk(st.Field(i), name)
		}
	}
	if len(registered) != 0 {
		t.Errorf("%d registered columns are not indexedTrace fields", len(registered))
	}
}
