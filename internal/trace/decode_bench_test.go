package trace_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// BenchmarkCodecDecodeScenario is BenchmarkCodecDecode/block-pooled on
// simulated calls instead of the synthetic corpus: WriteJSONL's output
// for every registered scenario, 2 s each, read through ReadBlock on one
// ring every iteration's reader borrows, as a node's ingest reads an
// upload. Its numbers are wide and irregular, as a real trace's are, and
// its line mix is a real trace's (mostly DCI, then packets), so its
// ns/rec is the one dominod_ingest_decode_seconds shows per record.
func BenchmarkCodecDecodeScenario(b *testing.B) {
	_, sets := scenarioSets(b, 1, 2*sim.Second)
	var stream []byte
	for _, set := range sets {
		stream = append(stream, writeJSONL(b, set)...)
	}
	records := bytes.Count(stream, []byte("\n"))
	ring := trace.NewBlockRing(1)
	trace.BenchRecords(b, records, func() {
		if n, err := trace.DrainJSONLRing(stream, ring); err != io.EOF || n != records {
			b.Fatalf("decoded %d of %d records: %v", n, records, err)
		}
	})
}
