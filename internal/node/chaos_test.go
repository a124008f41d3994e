package node_test

// The chaos differential: every registered scenario is ingested twice —
// once over a clean transport, once through a seeded fault injector
// that tears, corrupts, and delays the uploads — and the final
// /report/{id} payloads must be byte-identical. This is the acceptance
// check for the whole fault-tolerance layer: retry, resume, dedup, and
// suspend-on-interrupt must be invisible in the analysis output.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/faultinject"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// chaosFleetNow pins the fleet clock so store timestamps (and thus any
// time-derived report content) agree across the clean and chaos runs.
const chaosFleetNow = sim.Time(1_754_000_000_000_000)

func fetchReport(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/report/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestChaosDifferential pushes all registered scenarios through a
// flaky transport in both wire formats and asserts the reports match
// the clean ingest byte for byte.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential is the long acceptance test")
	}
	names := scenario.Names()
	if len(names) != 14 {
		t.Fatalf("scenario catalog has %d entries, the chaos matrix expects 14", len(names))
	}

	now := func() sim.Time { return chaosFleetNow }
	cleanSrv := node.New(testAnalyzer(t), node.Options{MaxStreams: 4, Now: now})
	cleanTS := httptest.NewServer(cleanSrv.Routes())
	defer cleanTS.Close()
	chaosSrv := node.New(testAnalyzer(t), node.Options{MaxStreams: 4, Now: now})
	chaosTS := httptest.NewServer(chaosSrv.Routes())
	defer chaosTS.Close()

	const dur = 12 * sim.Second
	formats := []struct {
		name        string
		contentType string
		encode      func(*trace.Set) ([]byte, error)
	}{
		{"jsonl", ingest.ContentTypeJSONL, func(set *trace.Set) ([]byte, error) {
			var buf bytes.Buffer
			err := trace.WriteJSONL(&buf, set)
			return buf.Bytes(), err
		}},
		{"binary", ingest.ContentTypeBinary, func(set *trace.Set) ([]byte, error) {
			var buf bytes.Buffer
			err := trace.WriteBinary(&buf, set)
			return buf.Bytes(), err
		}},
	}

	faulted := 0
	for i, name := range names {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sc.Build(uint64(31 + i))
		if err != nil {
			t.Fatal(err)
		}
		set := sess.Run(dur)

		for fi, f := range formats {
			payload, err := f.encode(set)
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%s-%s", name, f.name)

			clean := ingest.New(ingest.Options{BaseURL: cleanTS.URL})
			if _, err := clean.Upload(context.Background(), id, f.contentType, payload); err != nil {
				t.Fatalf("%s: clean ingest: %v", id, err)
			}

			// Every upload gets its own transport so each suffers the
			// full fault schedule: a torn stream, a corrupted tail, and
			// a delayed write before the fourth attempt goes through.
			flaky := faultinject.NewTransport(faultinject.TransportOptions{
				Seed:      int64(1000*i + fi),
				MaxFaults: 3,
			})
			chaos := ingest.New(ingest.Options{
				BaseURL:    chaosTS.URL,
				HTTPClient: &http.Client{Transport: flaky},
				Retries:    8,
				Backoff:    time.Millisecond,
				MaxBackoff: 5 * time.Millisecond,
				Seed:       int64(fi),
				Sleep:      func(time.Duration) {},
			})
			stats, err := chaos.Upload(context.Background(), id, f.contentType, payload)
			if err != nil {
				t.Fatalf("%s: chaos ingest: %v (attempts %d)", id, err, stats.Attempts)
			}
			// Attempt 1 is torn, attempt 2 corrupted, attempt 3 merely
			// delayed — so the third attempt is the one that lands.
			if stats.Attempts != 3 {
				t.Fatalf("%s: chaos ingest took %d attempts, want 3 (2 hard faults + delayed success)", id, stats.Attempts)
			}
			faulted += len(flaky.Faults())

			want := fetchReport(t, cleanTS.URL, id)
			got := fetchReport(t, chaosTS.URL, id)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: chaos report diverged from clean ingest\nclean: %s\nchaos: %s", id, want, got)
			}
		}
	}
	if faulted != len(names)*len(formats)*3 {
		t.Fatalf("injector delivered %d faults, want %d", faulted, len(names)*len(formats)*3)
	}
	// The chaos server really did resume sessions rather than restart
	// them from scratch every time.
	if metricValue(t, chaosTS.URL, "dominod_ingest_interrupted_total") == 0 {
		t.Fatal("no upload was ever interrupted mid-stream — the fault injector is not biting")
	}
}

// TestChaosCrashRecovery is the in-process kill -9: journal appends
// happen, the process "dies" without a final checkpoint, and recovery
// must rebuild the store byte-identical to a graceful spill. The
// out-of-process variant (a real SIGKILL) runs in scripts/chaos_smoke.sh.
func TestChaosCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.spill")
	wal := filepath.Join(dir, "store.wal")

	st, j, stats, err := rcastore.Recover(ckpt, wal, rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 || stats.CheckpointRows != 0 {
		t.Fatalf("fresh recovery not empty: %+v", stats)
	}
	srv := node.New(testAnalyzer(t), node.Options{
		MaxStreams: 4, Store: st, Journal: j,
		Now: func() sim.Time { return chaosFleetNow },
	})
	ts := httptest.NewServer(srv.Routes())

	for i, name := range []string{"harq-storm", "rlc-cascade", "jb-freeze-surge"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sc.Build(uint64(77 + i))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, sess.Run(8*sim.Second)); err != nil {
			t.Fatal(err)
		}
		resp := postChunk(t, ts.URL, name, "application/jsonl", -1, false, &buf)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: %d", name, resp.StatusCode)
		}
		drainClose(resp)
	}
	ts.Close()

	// What a graceful shutdown would have persisted.
	var graceful bytes.Buffer
	if err := st.Spill(&graceful); err != nil {
		t.Fatal(err)
	}

	// Crash: no Checkpoint, no Close — the journal file is all that
	// survives. Recovery must replay it into an identical store.
	st2, j2, stats2, err := rcastore.Recover(ckpt, wal, rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatalf("post-crash recovery: %v", err)
	}
	defer j2.Close()
	if stats2.Replayed != 3 {
		t.Fatalf("replayed %d journal records, want 3 (stats %+v)", stats2.Replayed, stats2)
	}
	var recovered bytes.Buffer
	if err := st2.Spill(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graceful.Bytes(), recovered.Bytes()) {
		t.Fatalf("recovered store diverged from graceful spill (%d vs %d bytes)",
			recovered.Len(), graceful.Len())
	}
}
