package domino

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// TestBinaryDifferentialAllScenarios pins the binary codec against the
// JSONL oracle across the full scenario catalog: for every registered
// scenario, the binary encoding of the generated trace must (a) decode
// to exactly the record stream of the JSONL encoding and (b) produce a
// byte-identical streaming-analysis report. This is the acceptance
// contract for format negotiation — a session ingested as binary is
// indistinguishable from the same session ingested as JSONL.
func TestBinaryDifferentialAllScenarios(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) < 14 {
		t.Fatalf("catalog has %d scenarios, want >= 14", len(scenarios))
	}
	analyzer, err := NewAnalyzer(DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			sess, err := NewScenarioSession(sc, 17)
			if err != nil {
				t.Fatal(err)
			}
			set := sess.Run(6 * Second)

			var jbuf, bbuf bytes.Buffer
			if err := WriteTrace(&jbuf, set); err != nil {
				t.Fatal(err)
			}
			if err := WriteTraceBinary(&bbuf, set); err != nil {
				t.Fatal(err)
			}
			if bbuf.Len() >= jbuf.Len() {
				t.Errorf("binary encoding (%d bytes) not smaller than JSONL (%d bytes)", bbuf.Len(), jbuf.Len())
			}

			// (a) identical record streams.
			jr := NewTraceReader(bytes.NewReader(jbuf.Bytes()))
			br := NewTraceReader(bytes.NewReader(bbuf.Bytes()))
			if jr.Binary() || !br.Binary() {
				t.Fatalf("sniffed JSONL as binary %v, binary as binary %v", jr.Binary(), br.Binary())
			}
			for i := 0; ; i++ {
				jrec, jerr := jr.Next()
				brec, berr := br.Next()
				if (jerr == io.EOF) != (berr == io.EOF) {
					t.Fatalf("record %d: stream lengths differ (jsonl err %v, binary err %v)", i, jerr, berr)
				}
				if jerr == io.EOF {
					break
				}
				if jerr != nil || berr != nil {
					t.Fatalf("record %d: jsonl err %v, binary err %v", i, jerr, berr)
				}
				if !reflect.DeepEqual(jrec, brec) {
					t.Fatalf("record %d differs:\njsonl  %+v\nbinary %+v", i, jrec, brec)
				}
			}

			// (b) byte-identical streaming reports.
			jrep, err := StreamRecords(bytes.NewReader(jbuf.Bytes()), NewStreamAnalyzer(analyzer, StreamConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			brep, err := StreamRecords(bytes.NewReader(bbuf.Bytes()), NewStreamAnalyzer(analyzer, StreamConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			jjson, err := json.Marshal(jrep)
			if err != nil {
				t.Fatal(err)
			}
			bjson, err := json.Marshal(brep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jjson, bjson) {
				t.Fatalf("reports differ:\njsonl  %s\nbinary %s", jjson, bjson)
			}
		})
	}
}
