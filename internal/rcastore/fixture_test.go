package rcastore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/checkpoint.rcas and testdata/journal.wal pin the on-disk
// format. They were written by the version of this package whose row
// frames could still carry named metrics (none here: the service never
// wrote one): 21 rows, spilled from a store of 8-row blocks, and the same
// rows appended to a journal in two segments (closed and reopened after
// row 11). The rows repeat no session and cover a cell name that needs
// escaping, an empty scenario, a start before the epoch, rows that fired
// nothing, and chains and causes listed with zero runs.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFixtureCheckpointRespills: the checkpoint loads and spills back
// byte for byte.
func TestFixtureCheckpointRespills(t *testing.T) {
	ckpt := readFixture(t, "checkpoint.rcas")
	st, err := Load(bytes.NewReader(ckpt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 21 {
		t.Fatalf("checkpoint loaded %d rows, want 21", st.Len())
	}
	if got := spillBytes(t, st); !bytes.Equal(got, ckpt) {
		t.Fatalf("re-spill of the fixture checkpoint differs:\ngot  %x\nwant %x", got, ckpt)
	}
}

// TestFixtureJournalRecovers: replaying the journal alone rebuilds the
// store the checkpoint holds, so its spill is the checkpoint's bytes.
func TestFixtureJournalRecovers(t *testing.T) {
	wal := readFixture(t, "journal.wal")
	if _, kinds := frameEnds(t, wal); bytes.Count(kinds, []byte{frameStart}) != 2 {
		t.Fatalf("the fixture journal has %d segments, want 2", bytes.Count(kinds, []byte{frameStart}))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal") // Recover reopens the journal for appending
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, j, stats, err := Recover(filepath.Join(dir, "none.ckpt"), path, Options{}, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if stats != (RecoveryStats{Replayed: 21}) {
		t.Fatalf("recovery stats %+v, want 21 rows replayed and nothing else", stats)
	}
	if got := spillBytes(t, st); !bytes.Equal(got, readFixture(t, "checkpoint.rcas")) {
		t.Fatalf("the store recovered from the fixture journal does not spill as the fixture checkpoint")
	}
}

// TestRowWithMetricsIsCorrupt: a row frame whose trailing count (of
// named metrics, in the version that kept them) is not 0 fails Load and
// journal replay as a corrupt frame, leaving no store behind.
func TestRowWithMetricsIsCorrupt(t *testing.T) {
	var one encoder
	one.row(&row{session: "x"})
	_, p, err := newFrameReader(bytes.NewReader(one.out)).next()
	if err != nil || p[len(p)-1] != 0 {
		t.Fatalf("a row frame does not end in a 0 count: %x (%v)", one.out, err)
	}
	// One (metric ID 0, value 1.5) pair, as version 1 laid it out.
	bad := append(append([]byte{}, p[:len(p)-1]...), 1, 0)
	bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(1.5))
	segment := func(e *encoder) {
		e.start()
		e.dict(dictCells, []string{"tdd"})
		e.dict(dictScens, []string{""})
		e.p = append(e.p, bad...)
		e.frame(frameRow)
	}
	const want = "row carries named metrics"

	st, err := Load(strings.NewReader(frames(func(e *encoder) { segment(e); e.end(1) })), Options{})
	if err == nil || st != nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load = %v, %v; want no store and an error containing %q", st, err, want)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	if err := os.WriteFile(path, []byte(frames(segment)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, stats, err := Recover(filepath.Join(dir, "none.ckpt"), path, Options{}, JournalOptions{})
	if err == nil || st != nil || stats.TornTail || !strings.Contains(err.Error(), "corrupt: "+want) {
		t.Fatalf("Recover = %v, %+v, %v; want no store and a corrupt-frame error containing %q", st, stats, err, want)
	}
}
