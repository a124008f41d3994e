package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestFlightRecorderRetainsNewest(t *testing.T) {
	r := NewFlightRecorder(10, nil) // rounds up to 16
	for i := 0; i < 40; i++ {
		r.Record(Event{Kind: EvWindowEvaluated, Sim: int64(i)})
	}
	lines := strings.Split(strings.TrimSuffix(string(r.AppendJSONL(nil, false)), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("retained %d events, want 16", len(lines))
	}
	for i, line := range lines {
		// The newest 16, oldest first, each under its index among all 40.
		want := fmt.Sprintf(`{"seq":%d,"kind":"window_evaluated","sim_us":%d}`, 24+i, 24+i)
		if line != want {
			t.Fatalf("line %d = %s, want %s", i, line, want)
		}
	}
}

func TestFlightRecorderJSONL(t *testing.T) {
	names := NewNameTable()
	quoted := names.Intern(`q"uote`)
	r := NewFlightRecorder(16, names)
	r.Record(Event{Kind: EvIngestChunk, Wall: 12345, Sim: 1000, N: 256})
	r.Record(Event{Kind: EvNodeFired, Wall: 12346, Sim: 2000, NameID: quoted})
	r.Record(Event{Kind: EvReportStored, Wall: 12347})

	withWall := string(r.AppendJSONL([]byte("prefix\n"), true))
	noWall := string(r.AppendJSONL(nil, false))
	wantWall := `prefix
{"seq":0,"kind":"ingest_chunk","wall_ns":12345,"sim_us":1000,"n":256}
{"seq":1,"kind":"node_fired","wall_ns":12346,"sim_us":2000,"name":"q\"uote"}
{"seq":2,"kind":"report_stored","wall_ns":12347,"sim_us":0}
`
	if withWall != wantWall {
		t.Fatalf("with wall:\n%s\nwant:\n%s", withWall, wantWall)
	}
	if strings.Contains(noWall, "wall_ns") {
		t.Fatalf("wall-excluded dump still carries wall_ns:\n%s", noWall)
	}
	if !strings.Contains(noWall, `{"seq":1,"kind":"node_fired","sim_us":2000,"name":"q\"uote"}`) {
		t.Fatalf("wall-excluded dump malformed:\n%s", noWall)
	}
}

// BenchmarkFlightRecorderRecord is the per-event cost the pipeline hooks
// pay with the recorder on (fleetbench's obs.flightrec_ns_per_event
// measures the same loop from outside).
func BenchmarkFlightRecorderRecord(b *testing.B) {
	names := NewNameTable()
	id := names.Intern("dl_grant_starvation")
	r := NewFlightRecorder(1024, names) // dominod's default -flightrec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Event{Kind: EvNodeFired, Sim: int64(i), NameID: id})
	}
}
