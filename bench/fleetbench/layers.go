package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// The in-process replay: the corpus goes through each layer's public
// functions in the node's own order (trace reader ReadBatch →
// stream.Analyzer.Push/Close → rcastore.FromReport → Store.Insert →
// Journal.Append), one span per call, timed from this file. A span
// covers one call as the node makes it — a decoded batch, a pushed
// batch, one window's evaluation — never a single record: two clock
// reads cost as much as handling a record does.
//
// A layer's figure is the median, over passes, of the pass's span time
// per unit of work, a pass being one corpus call (or one fixed batch of
// calls). The replay shares two cores with nothing but the idle nodes,
// yet a pass that is preempted still reads several times too long; the
// median drops it where a mean would not.

// ingestBatch is dominod's ingestChunk: the JSONL reader fills batches
// of this many records.
const ingestBatch = 256

// layerReplay runs every in-process measurement, giving each an equal
// slice of budget, and returns the per-layer figures by metric name.
func layerReplay(e *env, o *outcome, rec *recorder, budget time.Duration) (map[string]float64, error) {
	steps := []func(*replay) error{
		(*replay).decodeBinary, (*replay).decodeJSONL, (*replay).streamPush, (*replay).coreSteps,
		(*replay).storeWrites, (*replay).journalAppend, (*replay).journalRecover, (*replay).storeReads,
		(*replay).exposition, (*replay).flightRecorder, (*replay).ingestClient, (*replay).pool,
	}
	r := &replay{e: e, o: o, rec: rec, slice: budget / time.Duration(len(steps)+1), // streamPush takes two
		m: map[string]float64{}, perUnit: map[string][]float64{}}
	r.root = rec.begin(0, 0, "replay")
	if err := r.decodeCorpus(); err != nil {
		return nil, err
	}
	for _, step := range steps {
		if err := step(r); err != nil {
			return nil, err
		}
	}
	rec.end(r.root, 0)
	for _, sm := range spanMetrics {
		r.m[sm.metric] = medianOf(r.perUnit[sm.span]) * sm.scale
	}
	return r.m, nil
}

type replay struct {
	e     *env
	o     *outcome
	rec   *recorder
	root  int64
	slice time.Duration
	m     map[string]float64

	// ns and units accumulate the current pass's span time and work by
	// span name; perUnit holds every finished pass's ns ÷ units.
	ns, units map[string]int64
	perUnit   map[string][]float64

	batches map[*item][][]trace.Record // the decoded batches, header batch first
}

// call times one call into a layer as a span and books it to the
// current pass.
func (r *replay) call(name string, units int64, fn func()) {
	sp := r.rec.begin(r.root, 0, name)
	fn()
	r.ns[name] += r.rec.end(sp, units)
	r.units[name] += units
}

// passes runs fn as one pass per corpus item, in cycle order, until the
// time given is spent (at least once).
func (r *replay) passes(d time.Duration, fn func(it *item) error) error {
	deadline := time.Now().Add(d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		r.ns, r.units = map[string]int64{}, map[string]int64{}
		if err := fn(r.e.corpus.pick(n)); err != nil {
			return err
		}
		for name, ns := range r.ns {
			if u := r.units[name]; u > 0 {
				r.perUnit[name] = append(r.perUnit[name], float64(ns)/float64(u))
			}
		}
	}
	return nil
}

// spanMetrics are the per-layer metrics that are a span's time per unit
// of its work, in the given unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64 // from nanoseconds
}{
	{"trace.binary_decode_ns_per_record", "trace.binary_decode", 1},
	{"trace.jsonl_decode_ns_per_record", "trace.jsonl_decode", 1},
	{"stream.push_ns_per_record", "stream.push", 1},
	{"stream.close_us_per_session", "stream.close", 1e-3},
	{"core.observe_ns_per_record", "core.observe", 1},
	{"core.eval_us_per_window", "core.eval", 1e-3},
	{"core.step_us_per_window", "core.step", 1e-3},
	{"rcastore.from_report_us", "rcastore.from_report", 1e-3},
	{"rcastore.insert_us_per_report", "rcastore.insert", 1e-3},
	{"rcastore.journal_append_us", "rcastore.journal_append", 1e-3},
	{"rcastore.recover_us_per_report", "rcastore.recover", 1e-3},
	{"rcastore.top_chains_us", "rcastore.top_chains", 1e-3},
	{"rcastore.cause_rates_us", "rcastore.cause_rates", 1e-3},
	{"rcastore.records_query_us", "rcastore.records_query", 1e-3},
	{"rcastore.similar_us", "rcastore.similar", 1e-3},
	{"obs.parse_text_us_per_scrape", "obs.parse_text", 1e-3},
	{"obs.merge_us_per_scrape", "obs.merge", 1e-3},
	{"obs.write_text_us_per_scrape", "obs.write_text", 1e-3},
	{"obs.hooks_ns_per_record", "obs.hooks", 1},
	{"obs.flightrec_ns_per_event", "obs.flightrec", 1},
	{"ingest.client_us_per_upload", "ingest.client", 1e-3},
	{"parallel.submit_ns", "parallel.submit", 1},
	{"parallel.limiter_acquire_ns", "parallel.limiter", 1},
}

// decode reads one payload batch by batch, one span per ReadBatch. With
// keep it returns the batches (copied, so they outlive the reader).
func (r *replay) decode(name string, rr trace.RecordReader, keep bool) ([][]trace.Record, error) {
	var out [][]trace.Record
	buf := make([]trace.Record, 0, ingestBatch)
	for {
		sp := r.rec.begin(r.root, 0, name)
		batch, err := rr.ReadBatch(buf[:0])
		data := int64(len(batch))
		if data > 0 && batch[0].Header != nil {
			data--
		}
		r.ns[name] += r.rec.end(sp, data)
		r.units[name] += data
		if keep && len(batch) > 0 {
			out = append(out, append([]trace.Record(nil), batch...))
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
	}
}

func (r *replay) decodeBinary() error {
	r.m["trace.binary_bytes_per_record"] = r.bytesPerRecord(func(it *item) int { return len(it.Binary) })
	return r.passes(r.slice, func(it *item) error {
		br := trace.NewBinaryStreamReader(bytes.NewReader(it.Binary))
		br.Recycle(1) // as dominod does
		_, err := r.decode("trace.binary_decode", br, false)
		return err
	})
}

func (r *replay) decodeJSONL() error {
	r.m["trace.jsonl_bytes_per_record"] = r.bytesPerRecord(func(it *item) int { return len(it.JSONL) })
	return r.passes(r.slice, func(it *item) error {
		_, err := r.decode("trace.jsonl_decode", trace.NewStreamReader(bytes.NewReader(it.JSONL)), false)
		return err
	})
}

func (r *replay) bytesPerRecord(size func(*item) int) float64 {
	total := 0
	for _, it := range r.e.corpus.Items {
		total += size(it)
	}
	return float64(total) / float64(r.e.corpus.totalRecords())
}

// decodeCorpus decodes every item once, untimed and unrecycled, so the
// analyzer steps below replay records without paying for decode.
func (r *replay) decodeCorpus() error {
	r.batches = map[*item][][]trace.Record{}
	quiet := &replay{ns: map[string]int64{}, units: map[string]int64{}} // nil recorder: no spans
	for _, it := range r.e.corpus.Items {
		b, err := quiet.decode("", trace.NewBinaryStreamReader(bytes.NewReader(it.Binary)), true)
		if err != nil {
			return err
		}
		r.batches[it] = b
	}
	return nil
}

// countingHooks is the cheapest useful obs.Hooks: it counts events, as
// dominod's pipeline hooks bump counters.
type countingHooks struct {
	obs.NopHooks
	windows, nodes, chains int64
}

func (h *countingHooks) WindowEvaluated(start, end int64)                     { h.windows++ }
func (h *countingHooks) NodeRunClosed(node string, s, e int64, windows int)   { h.nodes++ }
func (h *countingHooks) ChainRunClosed(chain string, s, e int64, windows int) { h.chains++ }

// streamPush streams each item through a recycled stream analyzer the
// way dominod's pushChunk does — PushBatch per decoded batch, then
// Close — once with no hooks and once with counting hooks. The two runs
// of one item sit side by side, so their difference (the hooks' cost)
// is a paired one.
func (r *replay) streamPush() error {
	sa, hooks, peak := stream.New(r.e.corpus.Analyzer, stream.Config{DropWindows: true}), &countingHooks{}, 0
	run := func(it *item, h obs.Hooks, pushName, closeName string) error {
		sa.Reset()
		sa.SetHooks(h)
		var err error
		for _, batch := range r.batches[it] {
			r.call(pushName, int64(len(batch)), func() { err = sa.PushBatch(batch) })
			if err != nil {
				return fmt.Errorf("replay %s %s: %w", pushName, it.Name, err)
			}
		}
		stats := sa.Stats()
		if stats.MaxBuffered > peak {
			peak = stats.MaxBuffered
		}
		var rep *core.Report
		r.call(closeName, 1, func() { rep, err = sa.Close() })
		if err != nil {
			return fmt.Errorf("replay %s %s: %w", closeName, it.Name, err)
		}
		if rep.TotalChainEvents() != it.Ref.ChainEvents || stats.Records != it.Ref.Records {
			return fmt.Errorf("replay %s: streamed report differs from the batch reference", it.Name)
		}
		return nil
	}
	err := r.passes(2*r.slice, func(it *item) error {
		if err := run(it, nil, "stream.push", "stream.close"); err != nil {
			return err
		}
		if err := run(it, hooks, "stream.push+hooks", "stream.close+hooks"); err != nil {
			return err
		}
		r.ns["obs.hooks"] = r.ns["stream.push+hooks"] - r.ns["stream.push"]
		r.units["obs.hooks"] = r.units["stream.push"]
		return nil
	})
	r.m["stream.max_buffered_records"] = float64(peak)
	return err
}

// coreSteps drives core's window evaluator and DAG step directly, in
// the order stream.Analyzer does: observe records until the watermark
// closes a window, then evict, evaluate and step it.
func (r *replay) coreSteps() error {
	a := r.e.corpus.Analyzer
	cfg := a.Config()
	var eval *core.WindowEvaluator
	var inc *core.Incremental
	return r.passes(r.slice, func(it *item) error {
		batches := r.batches[it]
		hdr := batches[0][0].Header
		if eval == nil {
			eval, inc = a.NewWindowEvaluator(hdr.HasGNBLog), a.NewIncremental(hdr.CellName)
		} else {
			eval.Reset(hdr.HasGNBLog)
			inc.Reset(hdr.CellName)
		}
		inc.SetKeepWindows(false)
		next, lastStart := sim.Time(0), hdr.Duration-cfg.Window
		window := func() {
			var v core.FeatureVector
			r.call("core.eval", 1, func() {
				eval.EvictBefore(next)
				v = eval.Eval(next)
			})
			r.call("core.step", 1, func() { inc.Step(v) })
			next += cfg.Step
		}
		for _, batch := range batches[1:] {
			for len(batch) > 0 {
				// Observe up to and including the record that closes the
				// next window.
				n := 0
				for n < len(batch) {
					t, _ := batch[n].Time()
					n++
					if next <= lastStart && t >= next+cfg.Window {
						break
					}
				}
				r.call("core.observe", int64(n), func() {
					for _, rc := range batch[:n] {
						eval.Observe(rc)
					}
				})
				last, _ := batch[n-1].Time()
				for next <= lastStart && last >= next+cfg.Window {
					window()
				}
				batch = batch[n:]
			}
		}
		for next <= lastStart {
			window()
		}
		inc.Finish(hdr.Duration)
		r.m["core.windows_per_session"] = float64(r.units["core.eval"])
		return nil
	})
}

// storeRow builds the n-th replayed store row from a corpus item.
func storeRow(it *item, n int) rcastore.Record {
	return rcastore.FromReport(fmt.Sprintf("replay-%d", n), sim.Time(n)*sim.Second, it.Report)
}

func (r *replay) storeWrites() error {
	st, n := rcastore.New(rcastore.Options{MaxBlocks: 4096}), 0
	return r.passes(r.slice, func(it *item) error {
		var row rcastore.Record
		r.call("rcastore.from_report", 1, func() { row = storeRow(it, n) })
		r.call("rcastore.insert", 1, func() { st.Insert(row) })
		n++
		return nil
	})
}

// journalAppend times Append with an fsync per report, the fleet-live
// nodes' -store-sync 1.
func (r *replay) journalAppend() error {
	path := filepath.Join(r.e.fleet.dir, "replay-sync.wal")
	j, err := rcastore.OpenJournal(path, rcastore.JournalOptions{SyncEvery: 1})
	if err != nil {
		return err
	}
	n := 0
	err = r.passes(r.slice, func(it *item) error {
		row := storeRow(it, n)
		n++
		var err error
		r.call("rcastore.journal_append", 1, func() { err = j.Append(row) })
		return err
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replay journal append: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.m["rcastore.journal_bytes_per_report"] = float64(fi.Size()) / float64(n)
	return nil
}

// journalRecover times Recover over a journal of 5000 rows.
func (r *replay) journalRecover() error {
	const rows = 5000
	path := filepath.Join(r.e.fleet.dir, "replay-recover.wal")
	j, err := rcastore.OpenJournal(path, rcastore.JournalOptions{SyncEvery: 1 << 30}) // no fsync: written once, then only read
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if err := j.Append(storeRow(r.e.corpus.pick(i), i)); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	return r.passes(r.slice, func(*item) error {
		var st *rcastore.Store
		var err error
		r.call("rcastore.recover", rows, func() {
			st, j, _, err = rcastore.Recover(path+".ckpt", path, rcastore.Options{}, rcastore.JournalOptions{})
		})
		if err != nil {
			return fmt.Errorf("replay recover: %w", err)
		}
		if st.Len() != rows {
			return fmt.Errorf("replay recover: %d rows, want %d", st.Len(), rows)
		}
		return j.Close()
	})
}

// storeReads times the four store reads over a preload-sized store.
func (r *replay) storeReads() error {
	st := rcastore.New(rcastore.Options{})
	for i := 0; i < preloadRows; i++ {
		st.Insert(storeRow(r.e.corpus.pick(i), i))
	}
	q := rcastore.Query{From: sim.Time(preloadRows/2) * sim.Second}
	byCause := q
	byCause.Cause, byCause.Limit = core.CauseClasses()[0], 50
	probe, _ := st.Fired("replay-7")
	reads := []struct {
		name string
		do   func()
	}{
		{"rcastore.top_chains", func() { st.TopChains(q, 5) }},
		{"rcastore.cause_rates", func() { st.CauseRates(q, sim.Time(time.Hour/time.Microsecond)) }},
		{"rcastore.records_query", func() { st.Query(byCause) }},
		{"rcastore.similar", func() { st.Similar(probe.Fired, rcastore.Query{}, 6) }},
	}
	for _, rd := range reads {
		err := r.passes(r.slice/time.Duration(len(reads)), func(*item) error {
			r.call(rd.name, 1, rd.do)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// exposition times the federated scrape's three steps over the real
// nodes' own /metrics documents, as read when the window closed.
func (r *replay) exposition() error {
	docs := r.o.after
	if len(docs) == 1 {
		docs = append(docs, docs[0]) // a one-node workload still merges two documents
	}
	return r.passes(r.slice, func(*item) error {
		snaps := make([]obs.Snapshot, len(docs))
		var err error
		// One federated scrape parses every node's document: one unit.
		r.call("obs.parse_text", 1, func() {
			for i, sc := range docs {
				if snaps[i], err = obs.ParseText(bytes.NewReader(sc.text)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("replay obs.ParseText: %w", err)
		}
		var merged obs.Snapshot
		r.call("obs.merge", 1, func() { merged, err = obs.Merge(snaps...) })
		if err != nil {
			return fmt.Errorf("replay obs.Merge: %w", err)
		}
		var buf bytes.Buffer
		r.call("obs.write_text", 1, func() { err = merged.WriteText(&buf) })
		r.m["obs.scrape_bytes"] = float64(buf.Len())
		return err
	})
}

func (r *replay) flightRecorder() error {
	names := obs.NewNameTable()
	id := names.Intern("node")
	fr := obs.NewFlightRecorder(1024, names) // dominod's default -flightrec
	const events = 10000
	return r.passes(r.slice, func(*item) error {
		r.call("obs.flightrec", events, func() {
			for i := 0; i < events; i++ {
				fr.Record(obs.Event{Kind: obs.EvNodeFired, Sim: int64(i), NameID: id})
			}
		})
		return nil
	})
}

// ingestClient times ingest.Client.Upload against a server that reads
// and discards the body: the client protocol's own cost per upload.
func (r *replay) ingestClient() error {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body) // a short read shows as a client error
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	hc := newClient()
	defer hc.CloseIdleConnections()
	c := ingest.New(ingest.Options{BaseURL: srv.URL, HTTPClient: hc})
	n := 0
	return r.passes(r.slice, func(it *item) error {
		n++
		var err error
		r.call("ingest.client", 1, func() {
			_, err = c.Upload(context.Background(), fmt.Sprintf("replay-%d", n), ingest.ContentTypeBinary, it.Binary)
		})
		return err
	})
}

// pool times the two parallel primitives on dominod's ingest path: one
// Executor.Submit per pushed chunk, one Limiter acquire per request.
func (r *replay) pool() error {
	exec := parallel.NewExecutor(0, nil)
	defer exec.Close()
	lim := parallel.NewLimiter(64) // dominod's default -max-streams
	const calls = 1000
	done := make(chan struct{}, 1)
	return r.passes(r.slice, func(*item) error {
		r.call("parallel.submit", calls, func() {
			for i := 0; i < calls; i++ {
				exec.Submit(func(any) { done <- struct{}{} })
				<-done // depth one, as the ingest handler waits for each chunk
			}
		})
		var err error
		r.call("parallel.limiter", calls, func() {
			for i := 0; i < calls && err == nil; i++ {
				if err = lim.AcquireTimeout(context.Background(), time.Second); err == nil {
					lim.Release()
				}
			}
		})
		return err
	})
}
