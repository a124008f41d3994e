package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// outcome is everything a caller can observe of one stream's analysis:
// the contract PushBlock must match Push on.
type outcome struct {
	report   string   // final report as JSON ("" when the stream failed)
	stats    Stats    // at the failure point, or just before Close
	calls    []string // hooks, in order
	err      string   // first push (or Close) error
	accepted int      // records pushed without error, header included
}

// callLog records the hook sequence.
type callLog struct {
	obs.NopHooks
	calls []string
}

func (l *callLog) add(format string, args ...any) {
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
}
func (l *callLog) WindowEvaluated(s, e int64)        { l.add("window %d %d", s, e) }
func (l *callLog) NodeFired(n string, at int64)      { l.add("fired %s %d", n, at) }
func (l *callLog) ChainRunOpened(c string, at int64) { l.add("opened %s %d", c, at) }
func (l *callLog) NodeRunClosed(n string, s, e int64, w int) {
	l.add("node-closed %s %d %d %d", n, s, e, w)
}
func (l *callLog) ChainRunClosed(c string, s, e int64, w int) {
	l.add("chain-closed %s %d %d %d", c, s, e, w)
}

// analyze runs one encoded binary stream through a fresh analyzer,
// feeding it with push (which reports records accepted and the first
// error), and collects the outcome.
func analyze(a *core.Analyzer, cfg Config, push func(*Analyzer) (int, error)) outcome {
	log := &callLog{}
	s := New(a, cfg)
	s.SetHooks(log)
	var out outcome
	var err error
	out.accepted, err = push(s)
	out.stats = s.Stats()
	if err == nil {
		var rep *core.Report
		if rep, err = s.Close(); err == nil {
			js, jerr := json.Marshal(rep)
			if jerr != nil {
				panic(jerr)
			}
			out.report = string(js)
		}
	}
	if err != nil {
		out.err = err.Error()
	}
	out.calls = log.calls
	return out
}

// viaRecords is the record path as internal/node drove it before the
// block path existed: ReadBatch, then Push per record.
func viaRecords(a *core.Analyzer, cfg Config, enc []byte) outcome {
	return analyze(a, cfg, func(s *Analyzer) (int, error) {
		sr := trace.NewBinaryStreamReader(bytes.NewReader(enc))
		sr.Recycle(1)
		n := 0
		for {
			batch, err := sr.ReadBatch(nil)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			for _, rec := range batch {
				if err := s.Push(rec); err != nil {
					return n, err
				}
				n++
			}
		}
	})
}

// pushBlocks is the block path: ReadBlock, then PushBlock.
func pushBlocks(a *core.Analyzer, cfg Config, br *trace.Reader) outcome {
	return analyze(a, cfg, func(s *Analyzer) (int, error) {
		n := 0
		for {
			blk, err := br.ReadBlock()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			k, err := s.PushBlock(blk, 0)
			n += k
			if err != nil {
				return n, err
			}
		}
	})
}

// viaBlocks is the block path over a binary stream.
func viaBlocks(a *core.Analyzer, cfg Config, enc []byte) outcome {
	sr := trace.NewBinaryStreamReader(bytes.NewReader(enc))
	sr.Recycle(1)
	return pushBlocks(a, cfg, sr)
}

// viaJSONLBlocks is the block path over a JSONL stream.
func viaJSONLBlocks(a *core.Analyzer, cfg Config, jsonl []byte) outcome {
	sr := trace.NewStreamReader(bytes.NewReader(jsonl))
	sr.Recycle(1)
	return pushBlocks(a, cfg, sr)
}

// viaJSONLRecords is the record path over a JSONL stream: Next, then
// Push, record by record.
func viaJSONLRecords(a *core.Analyzer, cfg Config, jsonl []byte) outcome {
	return analyze(a, cfg, func(s *Analyzer) (int, error) {
		sr := trace.NewStreamReader(bytes.NewReader(jsonl))
		for n := 0; ; n++ {
			rec, err := sr.Next()
			if err == io.EOF {
				return n, nil
			}
			if err == nil {
				err = s.Push(rec)
			}
			if err != nil {
				return n, err
			}
		}
	})
}

func diffOutcomes(t *testing.T, recs, blks outcome) {
	t.Helper()
	if recs.err != blks.err {
		t.Fatalf("error:\nrecords %q\nblocks  %q", recs.err, blks.err)
	}
	if recs.accepted != blks.accepted {
		t.Fatalf("accepted: records %d, blocks %d", recs.accepted, blks.accepted)
	}
	if recs.stats != blks.stats {
		t.Fatalf("stats:\nrecords %+v\nblocks  %+v", recs.stats, blks.stats)
	}
	if recs.report != blks.report {
		t.Fatalf("report JSON differs (%d vs %d bytes)", len(recs.report), len(blks.report))
	}
	if !reflect.DeepEqual(recs.calls, blks.calls) {
		for i := range recs.calls {
			if i >= len(blks.calls) || recs.calls[i] != blks.calls[i] {
				t.Fatalf("call %d: records %q, blocks %q", i, recs.calls[i], blks.calls[min(i, len(blks.calls)-1)])
			}
		}
		t.Fatalf("calls: records %d, blocks %d", len(recs.calls), len(blks.calls))
	}
}

func encodeBinary(t testing.TB, hdr trace.Header, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	if err := w.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeJSONL writes the stream one line per record, in the order
// given, as encoding/json renders it — which is the trace encoder's
// form byte for byte.
func encodeJSONL(t testing.TB, hdr trace.Header, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	line := func(typ string, data any) {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			Data any    `json:"data"`
		}{typ, data}); err != nil {
			t.Fatal(err)
		}
	}
	line("header", struct {
		CellName  string   `json:"cell_name"`
		Scenario  string   `json:"scenario,omitempty"`
		Duration  sim.Time `json:"duration_us"`
		HasGNBLog bool     `json:"has_gnb_log"`
	}{hdr.CellName, hdr.Scenario, hdr.Duration, hdr.HasGNBLog})
	for _, rec := range recs {
		switch {
		case rec.DCI != nil:
			line("dci", rec.DCI)
		case rec.GNB != nil:
			line("gnb", rec.GNB)
		case rec.Packet != nil:
			line("pkt", rec.Packet)
		case rec.Stats != nil:
			line("stats", rec.Stats)
		case rec.RRC != nil:
			line("rrc", rec.RRC)
		}
	}
	return buf.Bytes()
}

// shuffleWithin reorders recs so that no record is displaced past a
// record slack or more later than it: consecutive stretches spanning
// under slack, of at most the record counts given in turn, are reversed.
func shuffleWithin(recs []trace.Record, slack sim.Time, counts ...int) []trace.Record {
	out := append([]trace.Record(nil), recs...)
	for lo, n := 0, 0; lo < len(out); n++ {
		t0, _ := out[lo].Time()
		hi := lo + 1
		for hi < len(out) && hi-lo < counts[n%len(counts)] {
			if t, _ := out[hi].Time(); t-t0 >= slack {
				break
			}
			hi++
		}
		for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		lo = hi
	}
	return out
}

// alternateDirections returns recs with the direction of every DCI row
// and of every packet the opposite of the one before it in its series,
// so that a run of block rows changes direction at every row.
func alternateDirections(recs []trace.Record) []trace.Record {
	out := append([]trace.Record(nil), recs...)
	var dci, pkt netem.Direction
	for i, rec := range out {
		switch {
		case rec.DCI != nil:
			r := *rec.DCI
			r.Dir, dci = dci, 1-dci
			out[i].DCI = &r
		case rec.Packet != nil:
			r := *rec.Packet
			r.Dir, pkt = pkt, 1-pkt
			out[i].Packet = &r
		}
	}
	return out
}

// plant returns recs with a copy of its first record (time ~0, long
// evaluated by then) inserted at data-record index at.
func plant(recs []trace.Record, at int) []trace.Record {
	out := append([]trace.Record(nil), recs[:at]...)
	out = append(out, recs[0])
	return append(out, recs[at:]...)
}

// TestPushBlockMatchesPush is the block path's pinning test: over every
// registered scenario and every analyzer configuration that changes
// what a record does, ReadBlock+PushBlock and ReadBatch+Push yield the
// same report bytes, Stats, hook sequence, error and
// accepted-record count.
func TestPushBlockMatchesPush(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		dur   = 12 * sim.Second
		slack = 200 * sim.Millisecond
		step  = 500 * sim.Millisecond // the default detector's
		block = 512                   // records per wire block
	)
	for i, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sc.Build(uint64(61 + i))
		if err != nil {
			t.Fatal(err)
		}
		all := records(t, sess.Run(dur))
		hdr, recs := *all[0].Header, all[1:]
		open := hdr
		open.Duration = 0
		// A late record in a block that sits past several evaluated
		// windows, at the block's first, a middle and its last position.
		lateBlock := len(recs) / block * 3 / 4 * block

		cases := []struct {
			name string
			cfg  Config
			hdr  trace.Header
			recs []trace.Record
		}{
			{"ordered", Config{}, hdr, recs},
			// Short stretches, and ones long enough to invert the sparse
			// series (two stats samples of one side) too.
			{"lateness-shuffled", Config{Lateness: slack}, hdr, shuffleWithin(recs, slack, 3, 150, 20)},
			// Every run between two window closes arrives backwards, whole.
			{"unordered-run", Config{Lateness: step + slack}, hdr, shuffleWithin(recs, step+slack, len(recs))},
			{"direction-per-row", Config{}, hdr, alternateDirections(recs)},
			{"drop-late", Config{DropLate: true}, hdr, plant(plant(recs, lateBlock+block/2), lateBlock)},
			{"drop-windows", Config{DropWindows: true}, hdr, recs},
			{"open-ended", Config{}, open, recs},
			{"late-first", Config{}, hdr, plant(recs, lateBlock)},
			{"late-middle", Config{}, hdr, plant(recs, lateBlock+block/2)},
			{"late-last", Config{}, hdr, plant(recs, lateBlock+block-1)},
		}
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				enc := encodeBinary(t, c.hdr, c.recs)
				want := viaRecords(analyzer, c.cfg, enc)
				diffOutcomes(t, want, viaBlocks(analyzer, c.cfg, enc))
				// The same stream as JSONL lines, read in 256-line blocks.
				diffOutcomes(t, want, viaJSONLBlocks(analyzer, c.cfg, encodeJSONL(t, c.hdr, c.recs)))
				// The cases mean what they say.
				switch c.name {
				case "drop-late":
					if want.stats.LateDropped != 2 {
						t.Fatalf("LateDropped = %d, want 2", want.stats.LateDropped)
					}
				case "late-first", "late-middle", "late-last":
					if want.err == "" || want.accepted%block != map[string]int{"late-first": 1, "late-middle": 1 + block/2, "late-last": 0}[c.name] {
						t.Fatalf("err %q after %d records", want.err, want.accepted)
					}
				default:
					if want.err != "" || want.stats.Windows == 0 {
						t.Fatalf("err %q, %d windows", want.err, want.stats.Windows)
					}
				}
			})
		}
	}
}

// TestJSONLDuplicateHeader pins what becomes of a second header line
// in the middle of a JSONL block: it reaches the analyzer as a record of
// its own, after every record before it, on the block path as on the
// record path.
func TestJSONLDuplicateHeader(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := records(t, simulate(t, ran.Amarisoft(), 5, 3*sim.Second))
	const at = 700 // in the third 256-line block
	jsonl := encodeJSONL(t, *all[0].Header, all[1:1+at])
	jsonl = append(jsonl, encodeJSONL(t, *all[0].Header, all[1+at:])...)
	want := viaJSONLRecords(analyzer, Config{}, jsonl)
	if want.err != "stream: duplicate header" || want.accepted != 1+at {
		t.Fatalf("record path: err %q after %d records", want.err, want.accepted)
	}
	diffOutcomes(t, want, viaJSONLBlocks(analyzer, Config{}, jsonl))
}

// TestPushBlockSkip pins the resume contract: PushBlock(b, k) is the
// block without its first k records. Every block is split at a
// different k — 0 and the whole block included — with the prefix going
// through Push, and the outcome must equal the unsplit block path's.
func TestPushBlockSkip(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := records(t, simulate(t, ran.Amarisoft(), 5, 8*sim.Second))
	enc := encodeBinary(t, *all[0].Header, all[1:])
	split := analyze(analyzer, Config{}, func(s *Analyzer) (int, error) {
		// Two readers in step: one yields each block's columns, the
		// other the same block's records.
		sr, rr := trace.NewBinaryStreamReader(bytes.NewReader(enc)), trace.NewBinaryStreamReader(bytes.NewReader(enc))
		n := 0
		for i := 0; ; i++ {
			blk, err := sr.ReadBlock()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			recs, err := rr.ReadBatch(nil)
			if err != nil || len(recs) != blk.Len() {
				t.Fatalf("block %d: %d records for a block of %d: %v", i, len(recs), blk.Len(), err)
			}
			k := 0
			if blk.Header == nil {
				k = i * 171 % (blk.Len() + 1)
				if err := s.PushBatch(recs[:k]); err != nil {
					return n, err
				}
			}
			rest, err := s.PushBlock(blk, k)
			if err != nil {
				return n, err
			}
			if rest != blk.Len()-k {
				t.Fatalf("block %d: PushBlock(skip %d) consumed %d of %d", i, k, rest, blk.Len())
			}
			n += blk.Len()
		}
	})
	diffOutcomes(t, viaBlocks(analyzer, Config{}, enc), split)
}

// FuzzPushBlock feeds arbitrary bytes to the binary decoder twice — as
// blocks into PushBlock and as record batches into PushBatch — and
// requires the same report, Stats and error from both, whether the
// stream decodes cleanly, fails in the decoder or fails in the
// analyzer. The seeds are FuzzBinaryStreamReader's (internal/trace)
// plus one stream long enough to close windows.
func FuzzPushBlock(f *testing.F) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	// small is the seed FuzzBinaryStreamReader starts from; windowed
	// spans 7 s at a record every 50 ms per series, so windows close and
	// samples are evicted while it streams, and carries what event 16's
	// count histograms cannot hold: MCS values out of their range, PRB
	// counts below zero. (A group with more rows than a histogram's
	// counter counts is internal/core's to test: as a seed its 65 537
	// rows cost a tenth of a second an execution.)
	small, windowed := trace.NewCollector("testcell", true), trace.NewCollector("testcell", true)
	small.Set.Duration, windowed.Set.Duration = sim.Second, 7*sim.Second
	for c, n := range map[*trace.Collector]int{small: 1, windowed: 140} {
		for i := 0; i < n; i++ {
			at := sim.Time(i) * 50 * sim.Millisecond
			c.OnDCI(trace.DCIRecord{At: at + 2*sim.Millisecond, RNTI: 7, OwnPRB: 10 - i%12, OtherPRB: i % 40, MCS: [...]int{12, 12, 12, -3, 32, 1 << 40}[i%6], TBSBits: 8000 >> (i % 5), RLCRetx: i%9 == 0, HARQRetx: i%4 == 0})
			c.OnGNBLog(trace.GNBLogRecord{At: at + 3*sim.Millisecond, Kind: trace.GNBLogKind(i % 3), Note: "x"})
			c.OnPacket(trace.PacketRecord{Seq: uint64(i), Kind: netem.MediaKind(i % 4), Size: 1200, SentAt: at, Arrived: at + sim.Time(30+i)*sim.Millisecond})
			c.OnStats(trace.WebRTCStatsRecord{At: at + 50*sim.Millisecond, Local: i%2 == 0, InboundFPS: float64(30 - i%25), TargetBitrateBps: 1e6})
			c.OnRRC(trace.RRCRecord{At: at + 10*sim.Millisecond, Connected: true, RNTI: 9})
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, &c.Set); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("DMNTRCB1"))
	f.Add([]byte("{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// An open-ended or very long stream evaluates a window per step
		// up to its last timestamp; keep the fuzzer on inputs that end.
		sr := trace.NewBinaryStreamReader(bytes.NewReader(data))
		var span sim.Time
		for {
			rec, err := sr.Next()
			if err != nil {
				break
			}
			if rec.Header != nil {
				span = max(span, rec.Header.Duration)
			} else if at, _ := rec.Time(); rec.Header == nil {
				span = max(span, at)
			}
		}
		if span > sim.Time(60)*sim.Second {
			t.Skip("stream spans more than a minute")
		}

		blocks := viaBlocks(analyzer, Config{}, data)
		batches := analyze(analyzer, Config{}, func(s *Analyzer) (int, error) {
			sr := trace.NewBinaryStreamReader(bytes.NewReader(data))
			for {
				batch, err := sr.ReadBatch(nil)
				if err == io.EOF {
					return 0, nil
				}
				if err != nil {
					return 0, err
				}
				if err := s.PushBatch(batch); err != nil {
					return 0, err
				}
			}
		})
		blocks.accepted, batches.accepted = 0, 0 // PushBatch does not count
		diffOutcomes(t, batches, blocks)
	})
}

// TestBlockIngestAllocs pins the allocation contract of the path
// internal/node runs binary ingest on: with the reader recycling its
// block storage and the analyzer Reset from an earlier session,
// steady-state ReadBlock + PushBlock — decode into columns, the tag
// walk, the bulk append to the index and, in the "windows" case, the
// run cut, advance under DropWindows and the amortised eviction and
// compaction — allocates nothing. (The stream fires no consequence: a
// window's Consequences slice is the result's own, on either path.) The
// "append" case's header declares a call shorter than one window, so
// there no window is ever evaluated.
func TestBlockIngestAllocs(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const perBlock = 512
	for _, tc := range []struct {
		name     string
		blocks   int
		spacing  sim.Time // between consecutive records
		duration sim.Time
	}{
		{"append", 24, 100, 1},
		// 4 blocks a second for 20 s: a window closes every other block.
		{"windows", 80, sim.Second / (4 * perBlock), 20 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every block holds the same mix of series in the same number of
			// bytes, so the reader's frame buffer and its two storage
			// generations are at full size after two blocks.
			recs := make([]trace.Record, 0, tc.blocks*perBlock)
			for i := 0; i < tc.blocks*perBlock; i++ {
				at := sim.Time(i) * tc.spacing
				switch i % 4 {
				case 0:
					recs = append(recs, trace.Record{DCI: &trace.DCIRecord{At: at, Dir: netem.Direction(i / 4 % 2), OwnPRB: 10, MCS: 12, TBSBits: 8000, RLCRetx: i%64 == 0}})
				case 1:
					recs = append(recs, trace.Record{GNB: &trace.GNBLogRecord{At: at, Kind: trace.GNBLogRLCRetx, Note: "x"}})
				case 2:
					recs = append(recs, trace.Record{Packet: &trace.PacketRecord{Seq: uint64(i % perBlock), Kind: netem.MediaKind(i / 4 % 3), Size: 1200, SentAt: at, Arrived: at + 30*sim.Millisecond}})
				case 3:
					recs = append(recs, trace.Record{Stats: &trace.WebRTCStatsRecord{At: at, Local: i/4%2 == 0, InboundFPS: 30, VideoJBDelayMs: 120}})
				}
			}
			enc := encodeBinary(t, trace.Header{CellName: "c", Duration: tc.duration, HasGNBLog: true}, recs)

			// The first session grows the index to the stream's size. The
			// later ones are counted exactly over their whole span — not
			// AllocsPerRun's per-call average, which rounds an allocation
			// per window step down to zero per block — and the least of
			// them is what the path costs: the count is process-wide, and
			// the runtime's own goroutines allocate now and then.
			s := New(analyzer, Config{DropWindows: true})
			measured := tc.blocks - 4
			least := ^uint64(0)
			for session := 0; session < 4; session++ {
				s.Reset()
				sr := trace.NewBinaryStreamReader(bytes.NewReader(enc))
				sr.Recycle(1)
				step := func() {
					blk, err := sr.ReadBlock()
					if err != nil {
						t.Fatal(err)
					}
					if n, err := s.PushBlock(blk, 0); err != nil || n != blk.Len() {
						t.Fatalf("PushBlock consumed %d of %d: %v", n, blk.Len(), err)
					}
				}
				for i := 0; i < 3; i++ { // the header, and a block per generation
					step()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < measured; i++ {
					step()
				}
				runtime.ReadMemStats(&after)
				if session > 0 {
					least = min(least, after.Mallocs-before.Mallocs)
				}
				got := s.Stats()
				if got.Records != (2+measured)*perBlock || (got.Windows > 0) != (tc.duration > 1) {
					t.Fatalf("stats after %d blocks: %+v", 2+measured, got)
				}
			}
			if least != 0 {
				t.Fatalf("steady-state block ingest allocates %d times in %d blocks", least, measured)
			}
		})
	}
}
