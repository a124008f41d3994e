package rcastore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// frameEnds walks a well-formed byte stream and returns where each
// frame ends and what kind it is.
func frameEnds(t testing.TB, data []byte) (ends []int, kinds []byte) {
	t.Helper()
	fr := newFrameReader(bytes.NewReader(data))
	for {
		kind, _, err := fr.next()
		if err != nil {
			if int(fr.off) != len(data) {
				t.Fatalf("stream is not whole frames: %v", err)
			}
			return ends, kinds
		}
		ends, kinds = append(ends, int(fr.off)), append(kinds, kind)
	}
}

// TestEveryPrefix cuts a checkpoint and a two-segment journal at every
// byte. Load must refuse every proper prefix; Recover must accept every
// one, return exactly the rows whose frames are whole, and report a
// torn tail exactly when the cut falls inside a frame.
func TestEveryPrefix(t *testing.T) {
	recs := journalFleet(10)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "store.wal")
	st := New(Options{BlockRows: 4})
	for half := 0; half < 2; half++ { // close and reopen: a second segment
		j, err := OpenJournal(jpath, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs[half*5 : half*5+5] {
			st.Insert(r)
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
	}

	ckpt := spillBytes(t, st)
	for n := 0; n < len(ckpt); n++ {
		if _, err := Load(bytes.NewReader(ckpt[:n]), Options{}); err == nil {
			t.Fatalf("Load accepted a checkpoint cut at byte %d of %d", n, len(ckpt))
		}
	}

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ends, kinds := frameEnds(t, data)
	cut := filepath.Join(dir, "cut.wal")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, rows := 0, 0 // the last frame boundary at or before n, and the rows before it
		for k, end := range ends {
			if end <= n {
				whole = end
				if kinds[k] == frameRow {
					rows++
				}
			}
		}
		got, j, stats, err := Recover(filepath.Join(dir, "none.ckpt"), cut, Options{}, JournalOptions{})
		if err != nil {
			t.Fatalf("Recover of a journal cut at byte %d: %v", n, err)
		}
		j.Close()
		if want := sessions(recs[:rows]); !reflect.DeepEqual(sessions(got.Query(Query{})), want) && rows > 0 || got.Len() != rows {
			t.Fatalf("cut at %d: recovered %v, want %v", n, sessions(got.Query(Query{})), want)
		}
		if stats.TornTail != (whole != n) || stats.TornBytes != int64(n-whole) {
			t.Fatalf("cut at %d, last frame boundary %d: stats = %+v", n, whole, stats)
		}
		if fi, _ := os.Stat(cut); fi.Size() != int64(whole) {
			t.Fatalf("cut at %d: journal is %d bytes after recovery, want the torn tail gone (%d)", n, fi.Size(), whole)
		}
	}
}

// TestLegacyFormatsNamed: a file in either encoding this codec replaced
// is refused with an error that says what it is, not a frame error.
func TestLegacyFormatsNamed(t *testing.T) {
	const (
		oldSpill   = `{"rcastore":1,"nodes":[],"cells":["tdd"],"scenarios":[""],"chains":[],"causes":[],"metrics":[]}` + "\n"
		oldJournal = `3f1c22aa {"session":"s1","cell":"tdd","start_us":0,"end_us":1}` + "\n"
	)
	for _, tc := range []struct {
		name, ckpt, wal, want string
	}{
		{"JSONL spill as checkpoint", oldSpill, "", "JSONL spill from before PR 17"},
		{"hex-CRC journal", "", oldJournal, "hex-CRC JSON-line journal from before PR 17"},
		{"JSONL spill where the journal should be", "", oldSpill, "JSONL spill from before PR 17"},
	} {
		dir := t.TempDir()
		ckpt, wal := filepath.Join(dir, "store.ckpt"), filepath.Join(dir, "store.wal")
		for path, content := range map[string]string{ckpt: tc.ckpt, wal: tc.wal} {
			if content != "" {
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, _, _, err := Recover(ckpt, wal, Options{}, JournalOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recover = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if fi, _ := os.Stat(wal); tc.wal != "" && fi.Size() != int64(len(tc.wal)) {
			t.Errorf("%s: the refused journal was truncated to %d bytes", tc.name, fi.Size())
		}
	}
	if _, err := Load(strings.NewReader(oldSpill), Options{}); err == nil || !strings.Contains(err.Error(), "before PR 17") {
		t.Errorf("Load(old spill) = %v, want the old format named", err)
	}
}

// TestFrameLengthCap reaches maxFramePayload from both sides: a frame
// of exactly the cap round-trips, the encoder refuses one byte more,
// and a length prefix beyond the cap is refused before anything is
// allocated for it.
func TestFrameLengthCap(t *testing.T) {
	// A dict frame is which(1) count(1) len(uvarint) name.
	name := strings.Repeat("c", maxFramePayload-2-len(binary.AppendUvarint(nil, maxFramePayload)))
	st := New(Options{})
	st.Insert(rec("big", name, "", 0, nil, nil, nil))
	loaded, err := Load(bytes.NewReader(spillBytes(t, st)), Options{})
	if err != nil {
		t.Fatalf("a frame of exactly the cap must load: %v", err)
	}
	if got := loaded.Query(Query{})[0].Cell; got != name {
		t.Fatalf("cap-sized name came back as %d bytes", len(got))
	}

	st = New(Options{})
	st.Insert(rec("bigger", name+"c", "", 0, nil, nil, nil))
	if err := st.Spill(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Spill of a frame over the cap = %v, want a refusal", err)
	}

	over := binary.AppendUvarint([]byte{frameRow}, maxFramePayload+1)
	whole := frames(func(e *encoder) { e.start() })
	if _, err := Load(strings.NewReader(whole+string(over)), Options{}); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Load of a length over the cap = %v, want a refusal", err)
	}
	fr := newFrameReader(strings.NewReader(whole + string(over)))
	fr.next()
	if _, _, err := fr.next(); err == nil || cap(fr.buf) > 1<<10 {
		t.Fatalf("a length over the cap sized a %d-byte buffer (err %v)", cap(fr.buf), err)
	}
}

// resealed re-frames data with correct checksums, reading it as frames
// whose checksums are ignored — so a fuzzer that mutates a payload gets
// past the CRC and into the decoder.
func resealed(data []byte) []byte {
	var e encoder
	for len(data) > 1 {
		n, w := binary.Uvarint(data[1:])
		if w <= 0 || n > uint64(len(data)-1-w) {
			break
		}
		e.p = append(e.p, data[1+w:1+w+int(n)]...)
		e.frame(data[0])
		data = data[min(len(data), 1+w+int(n)+4):]
	}
	return e.out
}

// FuzzLoad: Load never panics, and whatever it accepts is a store whose
// spill loads again and re-spills byte-identically. A checkpoint read
// one byte at a time loads as it does in one read: the same re-spilled
// bytes, or the same error.
func FuzzLoad(f *testing.F) {
	st := New(Options{BlockRows: 2})
	f.Add(spillBytes(f, st))
	for _, r := range journalFleet(5) {
		st.Insert(r)
	}
	whole := spillBytes(f, st)
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add([]byte(`{"rcastore":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data), Options{BlockRows: 2})
		bytewise, bytewiseErr := Load(iotest.OneByteReader(bytes.NewReader(data)), Options{BlockRows: 2})
		if fmt.Sprint(bytewiseErr) != fmt.Sprint(err) {
			t.Fatalf("one-byte reads fail differently: %v, whole read: %v", bytewiseErr, err)
		}
		if err == nil && !bytes.Equal(spillBytes(t, bytewise), spillBytes(t, loaded)) {
			t.Fatal("one-byte reads load a different store")
		}
		if err != nil {
			if loaded, err = Load(bytes.NewReader(resealed(data)), Options{BlockRows: 2}); err != nil {
				return
			}
		}
		first := spillBytes(t, loaded)
		again, err := Load(bytes.NewReader(first), Options{BlockRows: 2})
		if err != nil {
			t.Fatalf("the spill of an accepted input does not load: %v", err)
		}
		if !bytes.Equal(spillBytes(t, again), first) {
			t.Fatal("spill -> load -> spill is not a fixed point")
		}
	})
}
