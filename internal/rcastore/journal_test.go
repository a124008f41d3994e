package rcastore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalFleet builds n records with distinct sessions and enough
// variety to grow every dictionary.
func journalFleet(n int) []Record {
	recs := make([]Record, n)
	cells := []string{"tdd", "fdd", "amarisoft"}
	for i := range recs {
		recs[i] = rec(fmt.Sprintf("j%04d", i), cells[i%len(cells)], "harq-storm", i,
			[]string{"harq_retx", fmt.Sprintf("node_%d", i%7)},
			[]ChainRuns{{Chain: fmt.Sprintf("chain_%d", i%5), Runs: 1 + i%4}},
			[]CauseRuns{{Cause: "harq_retx", Runs: 1 + i%4}})
	}
	return recs
}

func spillBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Spill(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalRecoverMatchesGracefulSpill is the durability acceptance
// pin: insert a fleet with journaling and a mid-stream checkpoint,
// "crash" with no final checkpoint, recover from disk, and require the
// recovered store to spill byte-identically to the live one — with
// block eviction active on both sides so retention replays too.
func TestJournalRecoverMatchesGracefulSpill(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.ckpt")
	jpath := filepath.Join(dir, "store.wal")
	opts := Options{BlockRows: 8, MaxBlocks: 5}

	live := New(opts)
	j, err := OpenJournal(jpath, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := journalFleet(60)
	for i, r := range recs {
		live.Insert(r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		if i == 25 {
			if err := j.Checkpoint(live, ckpt); err != nil {
				t.Fatal(err)
			}
		}
	}
	// kill -9 analog: the journal file is synced per append; the
	// process just disappears with no final checkpoint.
	j.Close()

	recovered, j2, stats, err := Recover(ckpt, jpath, opts, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if stats.CheckpointRows != 26 {
		t.Fatalf("CheckpointRows = %d, want 26", stats.CheckpointRows)
	}
	if stats.Replayed != 34 || stats.Deduped != 0 || stats.TornTail {
		t.Fatalf("stats = %+v, want 34 replayed, none deduped, no torn tail", stats)
	}
	if got, want := spillBytes(t, recovered), spillBytes(t, live); !bytes.Equal(got, want) {
		t.Fatalf("recovered store spill diverges from graceful spill:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}

	// The reopened journal must keep working: append one more record,
	// crash again, recover again.
	extra := rec("j-extra", "tdd", "harq-storm", 99, []string{"harq_retx"}, nil, nil)
	live.Insert(extra)
	if err := j2.Append(extra); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recovered2, j3, _, err := Recover(ckpt, jpath, opts, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if !bytes.Equal(spillBytes(t, recovered2), spillBytes(t, live)) {
		t.Fatal("second crash/recover cycle diverged")
	}
}

// TestJournalRecoverFresh covers a first boot: neither file exists.
func TestJournalRecoverFresh(t *testing.T) {
	dir := t.TempDir()
	st, j, stats, err := Recover(filepath.Join(dir, "none.ckpt"), filepath.Join(dir, "none.wal"), Options{}, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st.Len() != 0 || stats.CheckpointRows != 0 || stats.Replayed != 0 {
		t.Fatalf("fresh recovery not empty: len=%d stats=%+v", st.Len(), stats)
	}
	if err := j.Append(rec("s1", "tdd", "", 0, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTail pins crash-mid-append behavior: a partial final
// frame is discarded, everything before it replays, and the repaired
// journal accepts new appends cleanly.
func TestJournalTornTail(t *testing.T) {
	rowFrame := frames(func(e *encoder) { e.row(&row{session: "torn"}) })
	for tear, tail := range map[string]string{
		"cut-mid-payload":  rowFrame[:len(rowFrame)/2], // the file ends inside the frame
		"bad-crc-tail":     flipLast(rowFrame),         // whole frame, checksum wrong
		"short-frame-tail": rowFrame[:1],               // a kind byte and no length
	} {
		t.Run(tear, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "store.ckpt")
			jpath := filepath.Join(dir, "store.wal")
			j, err := OpenJournal(jpath, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			recs := journalFleet(5)
			for _, r := range recs {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()

			st, j2, stats, err := Recover(ckpt, jpath, Options{}, JournalOptions{})
			if err != nil {
				t.Fatalf("torn tail must recover, got %v", err)
			}
			if !stats.TornTail || stats.TornBytes != int64(len(tail)) {
				t.Fatalf("stats = %+v, want torn tail of %d bytes", stats, len(tail))
			}
			if st.Len() != len(recs) {
				t.Fatalf("recovered %d rows, want %d", st.Len(), len(recs))
			}
			// The torn bytes must be gone: a fresh append then re-recover
			// yields exactly recs + 1.
			extra := rec("j-after-tear", "tdd", "", 50, nil, nil, nil)
			if err := j2.Append(extra); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			st2, j3, stats2, err := Recover(ckpt, jpath, Options{}, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			j3.Close()
			if stats2.TornTail || st2.Len() != len(recs)+1 {
				t.Fatalf("repair failed: stats=%+v rows=%d", stats2, st2.Len())
			}
		})
	}
}

// TestJournalMidCorruption: a bad frame that is not the final one is
// corruption, and recovery must refuse to guess.
func TestJournalMidCorruption(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "store.wal")
	j, err := OpenJournal(jpath, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range journalFleet(4) {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the second row: same length, one payload byte changed, so the
	// frames after it still parse.
	ends, kinds := frameEnds(t, data)
	rows := 0
	for k, kind := range kinds {
		if kind == frameRow {
			if rows++; rows == 2 {
				data[ends[k]-5] ^= 0x01
			}
		}
	}
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Recover(filepath.Join(dir, "none.ckpt"), jpath, Options{}, JournalOptions{})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption must fail recovery, got %v", err)
	}
}

// TestJournalCheckpointCrashWindow simulates dying between the
// checkpoint rename and the journal truncate: the journal still holds
// records the checkpoint already covers, and replay must dedup them by
// session instead of double-inserting.
func TestJournalCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.ckpt")
	jpath := filepath.Join(dir, "store.wal")
	live := New(Options{})
	j, err := OpenJournal(jpath, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := journalFleet(6)
	for _, r := range recs {
		live.Insert(r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	preCheckpoint, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(live, ckpt); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Undo the truncate, as if the crash hit right after the rename.
	if err := os.WriteFile(jpath, preCheckpoint, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, j2, stats, err := Recover(ckpt, jpath, Options{}, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if stats.Deduped != len(recs) || stats.Replayed != 0 {
		t.Fatalf("stats = %+v, want all %d journal records deduped", stats, len(recs))
	}
	if !bytes.Equal(spillBytes(t, recovered), spillBytes(t, live)) {
		t.Fatal("crash-window recovery double-inserted or diverged")
	}
}

// TestJournalSyncBatching pins the group-commit policy and the counts
// Stats reports for it: SyncEvery n fsyncs once per n appends, Sync
// flushes the remainder, and a checkpoint counts once.
func TestJournalSyncBatching(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "w.wal"), JournalOptions{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := New(Options{})
	for _, r := range journalFleet(10) {
		st.Insert(r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats(); got != (JournalStats{Appends: 10, Syncs: 2}) {
		t.Fatalf("stats %+v, want 10 appends / 2 batched syncs", got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats(); got.Syncs != 3 {
		t.Fatalf("explicit Sync did not flush: syncs=%d", got.Syncs)
	}
	if err := j.Checkpoint(st, filepath.Join(dir, "w.ckpt")); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats(); got != (JournalStats{Appends: 10, Syncs: 3, Checkpoints: 1}) {
		t.Fatalf("stats after a checkpoint %+v, want 10 appends / 3 syncs / 1 checkpoint", got)
	}
	if (*Journal)(nil).Stats() != (JournalStats{}) {
		t.Fatal("a nil journal reports counts")
	}
}

// failFile wraps a File, failing writes after a byte budget — a local
// stand-in for a full disk (internal/faultinject provides the richer
// harness; it cannot be imported here without a cycle).
type failFile struct {
	File
	budget int
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.budget -= len(p); f.budget < 0 {
		return 0, errors.New("disk full (injected)")
	}
	return f.File.Write(p)
}

type failFS struct {
	OsFS
	budget int
}

func (fs *failFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{File: f, budget: fs.budget}, nil
}

// TestJournalAppendDiskError: a failed append reports its error but
// leaves the journal open; what made it to disk before the failure
// still recovers (possibly with a torn tail).
func TestJournalAppendDiskError(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "w.wal")
	j, err := OpenJournal(jpath, JournalOptions{FS: &failFS{budget: 400}})
	if err != nil {
		t.Fatal(err)
	}
	recs := journalFleet(10)
	ok, failed := 0, 0
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			failed++
		} else {
			ok++
		}
	}
	j.Close()
	if failed == 0 || ok == 0 {
		t.Fatalf("want a mix of successes and failures, got ok=%d failed=%d", ok, failed)
	}
	st, j2, _, err := Recover(filepath.Join(dir, "none.ckpt"), jpath, Options{}, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if st.Len() != ok {
		t.Fatalf("recovered %d rows, want the %d durable ones", st.Len(), ok)
	}
}
