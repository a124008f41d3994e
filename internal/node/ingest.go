package node

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/trace"
)

// The negotiated ingest wire formats. formatBinary is the compact
// columnar trace encoding (internal/trace.WriteBinary); formatJSONL is
// the line-delimited compatibility path.
const (
	formatJSONL  = "jsonl"
	formatBinary = "binary"
)

// jsonlContentTypes are the media types that select the JSONL decoder.
var jsonlContentTypes = map[string]bool{
	"application/jsonl":    true,
	"application/x-ndjson": true,
	"application/json":     true,
}

// supportedContentTypes is the 415 error's list of accepted media
// types.
const supportedContentTypes = ingest.ContentTypeBinary +
	", application/jsonl, application/x-ndjson, application/json, application/octet-stream"

// negotiateFormat maps an ingest request's Content-Type onto a decode
// format: formatBinary, formatJSONL, or "" when the first body bytes
// should be sniffed instead (no Content-Type, or the generic
// octet-stream). Any other media type is an error the handler turns
// into a 415.
func negotiateFormat(r *http.Request) (string, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "", nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return "", fmt.Errorf("unparseable Content-Type %q (supported: %s)", ct, supportedContentTypes)
	}
	switch {
	case mt == ingest.ContentTypeBinary:
		return formatBinary, nil
	case jsonlContentTypes[mt]:
		return formatJSONL, nil
	case mt == "application/octet-stream":
		return "", nil
	}
	return "", fmt.Errorf("unsupported Content-Type %q (supported: %s)", mt, supportedContentTypes)
}

// reject answers an ingest request with a typed rejection, counted
// under its reason when the code is one of the shed reasons.
func (n *Node) reject(w http.ResponseWriter, code ingest.Code, msg string) {
	if c := n.m.ingestRejected[code]; c != nil {
		c.Inc()
	}
	code.Reject(w, msg)
}

func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	if n.draining.Load() {
		n.reject(w, ingest.CodeDraining, "draining: this node is shutting down, retry elsewhere")
		return
	}
	format, err := negotiateFormat(r)
	if err != nil {
		// Rejected before registration: an unsupported media type must
		// not squat on its session ID or burn an admission slot.
		ingest.WriteError(w, http.StatusUnsupportedMediaType, err.Error())
		return
	}
	req, err := ingest.ParseRequest(r.Header)
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Admission before registration: a shed upload leaves no session
	// behind, and a registered session is never parked waiting on a
	// slot it may hold forever.
	if err := n.limiter.AcquireTimeout(r.Context(), n.opts.AdmitWait); err != nil {
		if errors.Is(err, parallel.ErrAcquireTimeout) {
			n.reject(w, ingest.CodeOverload,
				fmt.Sprintf("ingest capacity saturated (%d streams); retry after backoff", n.limiter.Cap()))
			return
		}
		ingest.WriteError(w, http.StatusServiceUnavailable, "ingest capacity saturated and client gave up")
		return
	}
	defer n.limiter.Release()

	sess, id, d := n.admit(r.Context(), r.URL.Query().Get("session"), req)
	switch {
	case d.Action == ingest.Replay:
		// Idempotent retry of a session that already completed: the
		// client lost the final response, not the session. Serve the
		// report again instead of failing the retry.
		ingest.WriteJSON(w, http.StatusOK, n.reportPayload(sess))
		return
	case d.Code == ingest.CodeConflict:
		n.reject(w, d.Code, fmt.Sprintf("session %q already exists", id))
		return
	case d.Code == ingest.CodeBusy:
		n.reject(w, d.Code,
			fmt.Sprintf("session %q is still owned by an interrupted upload; retry after backoff", id))
		return
	case d.Code == ingest.CodeSeqGap:
		n.reject(w, d.Code,
			fmt.Sprintf("sequence gap: body starts at record %d but session %q has accepted fewer; probe the watermark", req.Seq, id))
		return
	}
	defer sess.release()
	skip := d.Skip
	if d.Resume {
		n.m.ingestResumed.Inc()
	}

	// Body caps and slow-client deadlines: MaxBytesReader enforces
	// MaxBody (the tracker tells an over-limit abort apart from any
	// other read error, however the decoder wrapped it), and every
	// chunk read below carries a StreamIdle deadline so a stalled
	// client is disconnected instead of squatting on its admission
	// slot.
	var bodySrc io.Reader = r.Body
	if n.opts.MaxBody > 0 {
		bodySrc = http.MaxBytesReader(w, r.Body, n.opts.MaxBody)
	}
	lt := &limitTracker{r: bodySrc}
	rc := http.NewResponseController(w)

	// Build the negotiated decoder; with no (or a generic) Content-Type
	// the first body bytes decide, so piped replays and bare curl
	// octet-stream uploads still hit the right path. Either format is
	// read block by block, in columns, and never becomes Records. Block
	// storage is recycled: a block is fully pushed (its columns appended
	// to the analyzer's index) before the next one is decoded, so
	// steady-state ingest allocates no per-record garbage. The
	// generations come from the node's pool, for either format: a live
	// chunk is a handful of blocks, too few to grow thirty columns anew
	// for.
	var rr trace.RecordReader
	switch format {
	case formatBinary:
		rr = trace.NewBinaryStreamReader(lt)
	case formatJSONL:
		rr = trace.NewStreamReader(lt)
	default:
		rr = trace.NewAutoStreamReader(lt)
	}
	var jsonl *trace.StreamReader
	format = formatBinary
	if sr, ok := rr.(*trace.StreamReader); ok {
		format, jsonl = formatJSONL, sr
	}
	br := rr.(blockReader)
	ring := n.ringPool.Get().(*trace.BlockRing)
	defer n.ringPool.Put(ring)
	br.RecycleInto(ring)
	n.log.Debug("ingest started", "session", id, "format", format, "seq", req.Seq, "eos", req.Eos, "resumed", d.Resume)

	// The body decodes block by block — a wire block on the binary
	// format, up to 256 lines on JSONL — and each block is pushed whole
	// before the next is read: one session-lock acquisition (and one pass
	// of window evaluations) per block instead of per record, while
	// /report snapshots interleave between blocks. Each phase is timed
	// into its latency histogram (decode covers the wire read, step the
	// analyzer push, window evaluations included).
	decodeSeconds := n.m.decodeSeconds[format]
	ingestRecords := n.m.ingestRecords[format]
	var readErr, pushErr error
	for readErr == nil && pushErr == nil {
		if n.opts.StreamIdle > 0 {
			_ = rc.SetReadDeadline(time.Now().Add(n.opts.StreamIdle))
		}
		decodeStart := time.Now()
		var blk *trace.Block
		blk, readErr = br.ReadBlock()
		decodeSeconds.Observe(time.Since(decodeStart).Seconds())
		if blk == nil {
			continue
		}
		dup := 0
		if skip > 0 {
			// A resuming client replayed records the session already
			// analyzed: dedup the prefix instead of double-counting.
			dup = min(skip, blk.Len())
			skip -= dup
			n.m.ingestDeduped.Add(int64(dup))
			if dup == blk.Len() {
				continue
			}
		}
		pushErr = n.pushChunk(sess, blk, dup, ingestRecords)
	}
	// A body the decoder stopped on is read to its end, under the same cap
	// and one more idle deadline: a clean EOF behind the bad bytes makes
	// the payload malformed, a transport error makes it torn.
	if readErr != io.EOF && pushErr == nil && !lt.torn {
		if n.opts.StreamIdle > 0 {
			_ = rc.SetReadDeadline(time.Now().Add(n.opts.StreamIdle))
		}
		_, _ = io.Copy(io.Discard, lt)
	}
	// Clear the read deadline before responding: the connection may be
	// kept alive, and a stale deadline would poison its next request.
	if n.opts.StreamIdle > 0 {
		_ = rc.SetReadDeadline(time.Time{})
	}
	if jsonl != nil {
		n.m.jsonlSlowLines.Add(int64(jsonl.SlowLines()))
	}
	if pushErr != nil {
		n.fail(sess, pushErr.Error())
		ingest.WriteError(w, http.StatusBadRequest, pushErr.Error())
		return
	}
	// How the body ended decides what becomes of the session. An
	// over-limit body is a permanent 413 and one that arrived whole but
	// does not decode a permanent 400 (retrying the same payload cannot
	// succeed); a torn one suspends a resumable session — it stays active
	// with its watermark intact so the client can resume — and fails a
	// one-shot one.
	end := ingest.EndClean
	switch {
	case readErr == io.EOF:
	case lt.hit:
		end = ingest.EndTooLarge
	case lt.torn:
		end = ingest.EndInterrupted
	default:
		end = ingest.EndMalformed
	}
	switch req.Settle(end) {
	case ingest.Ack:
		// Clean chunk boundary on a resumable session: acknowledge the
		// watermark and keep the session live for the next chunk.
		p := sess.protocol()
		ingest.WriteJSON(w, http.StatusAccepted, ingest.Watermark{Session: id, Accepted: p.Accepted, State: p.State})
	case ingest.Suspend:
		acc := sess.protocol().Accepted
		n.m.ingestInterrupted.Inc()
		n.log.Warn("ingest interrupted, session suspended",
			"session", id, "accepted", acc, "err", readErr)
		n.reject(w, ingest.CodeInterrupted,
			fmt.Sprintf("stream interrupted after %d records (%v); resume from the watermark", acc, readErr))
	case ingest.Fail:
		if end == ingest.EndTooLarge {
			n.fail(sess, fmt.Sprintf("request body exceeds the %d-byte ingest cap", n.opts.MaxBody))
			n.reject(w, ingest.CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte ingest cap (-max-body)", n.opts.MaxBody))
			return
		}
		n.fail(sess, readErr.Error())
		if end == ingest.EndMalformed {
			n.reject(w, ingest.CodeMalformed, readErr.Error())
			return
		}
		ingest.WriteError(w, http.StatusBadRequest, readErr.Error())
	case ingest.Complete:
		n.complete(w, sess)
	}
}

// complete closes a fully-uploaded session: final report, store
// insert, journal append, and the 200 that carries the report.
func (n *Node) complete(w http.ResponseWriter, sess *session) {
	id := sess.id
	sess.mu.Lock()
	stats := sess.sa.Stats()
	rep, err := sess.sa.Close()
	if err != nil {
		n.detachLocked(sess, ingest.StateFailed, err.Error())
		sess.mu.Unlock()
		n.m.sessionsFailed.Inc()
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess.final = rep
	n.detachLocked(sess, ingest.StateDone, "")
	sess.mu.Unlock()
	n.m.sessionsDone.Inc()
	n.m.lateDropped.Add(int64(stats.LateDropped))
	// Persist the completed diagnosis into the fleet store, stamped so
	// the session ends now and started a report-duration ago.
	end := n.now()
	insertStart := time.Now()
	storeRec := rcastore.FromReport(id, end-rep.Duration, rep)
	n.store.Insert(storeRec)
	n.m.insertSeconds.Observe(time.Since(insertStart).Seconds())
	if n.journal != nil {
		// Write-ahead-journal the completed diagnosis: when this node
		// dies before its next checkpoint, recovery replays the report
		// instead of losing it. An append error is logged and counted
		// but does not fail the session — the analysis succeeded and
		// the in-memory store has it.
		if err := n.journal.Append(storeRec); err != nil {
			n.m.journalErrors.Inc()
			n.log.Error("journal append failed", "session", id, "err", err)
		} else {
			n.maybeCheckpoint()
		}
	}
	if sess.rec != nil {
		sess.rec.Record(obs.Event{
			Kind: obs.EvReportStored,
			Wall: time.Now().UnixNano(),
			Sim:  int64(rep.Duration),
			N:    int64(rep.TotalChainEvents()),
		})
	}
	n.log.Debug("session done",
		"session", id, "cell", rep.CellName, "scenario", rep.Scenario,
		"records", stats.Records, "windows", stats.Windows,
		"late_dropped", stats.LateDropped, "chain_events", rep.TotalChainEvents())
	ingest.WriteJSON(w, http.StatusOK, n.reportPayload(sess))
}

// blockReader is what the ingest loop needs of either trace reader.
type blockReader interface {
	ReadBlock() (*trace.Block, error)
	RecycleInto(*trace.BlockRing)
}

// pushChunk pushes one decoded block through the session's analyzer
// under the session lock — the "step" phase of ingest — minus its first
// skip records, a replayed prefix the session already has. The caller
// holds the session's upload slot, so steps never queue on the lock
// behind each other, only behind a /report snapshot. records is the
// per-format accepted-records counter for the session's negotiated wire
// format.
func (n *Node) pushChunk(sess *session, blk *trace.Block, skip int, records *obs.Counter) error {
	stepStart := time.Now()
	sess.mu.Lock()
	pushed, pushErr := sess.sa.PushBlock(blk, skip)
	timed := pushed // pushed data records, the header left out
	if blk.Header != nil {
		timed = 0
	}
	// Advance the resume watermark by decoded records actually pushed:
	// a retrying client replays from here and the handler dedups the
	// prefix, so the analyzer sees every record exactly once.
	sess.proto.Accepted += pushed
	if sess.rec != nil {
		sess.rec.Record(obs.Event{
			Kind: obs.EvIngestChunk,
			Wall: time.Now().UnixNano(),
			Sim:  int64(sess.sa.Watermark()),
			N:    int64(blk.Len() - skip),
		})
	}
	sess.mu.Unlock()
	n.m.stepSeconds.Observe(time.Since(stepStart).Seconds())
	n.m.recordsTotal.Add(int64(timed))
	records.Add(int64(timed))
	return pushErr
}

// maybeCheckpoint triggers an async store checkpoint every
// CheckpointEvery journal appends. Checkpoints single-flight: if one
// is still running, the trigger is dropped — the journal keeps
// growing and the next multiple tries again.
func (n *Node) maybeCheckpoint() {
	every := n.opts.CheckpointEvery
	if every <= 0 {
		return
	}
	if n := n.journaled.Add(1); n%int64(every) != 0 {
		return
	}
	go func() {
		if !n.ckptMu.TryLock() {
			return
		}
		defer n.ckptMu.Unlock()
		if err := n.journal.Checkpoint(n.store, n.opts.CheckpointPath); err != nil {
			n.m.journalErrors.Inc()
			n.log.Error("checkpoint failed", "path", n.opts.CheckpointPath, "err", err)
			return
		}
		n.log.Debug("store checkpointed", "path", n.opts.CheckpointPath, "rows", n.store.Len())
	}()
}

// limitTracker marks when the wrapped body failed with anything but
// EOF (torn) and when that was http.MaxBytesReader's cap (hit). Decoders
// wrap read errors in format-specific context, and fail on bad bytes
// too, so the handler cannot reliably tell either from the decode error
// itself; watching the raw reader is exact.
type limitTracker struct {
	r         io.Reader
	hit, torn bool
}

func (lt *limitTracker) Read(p []byte) (int, error) {
	n, err := lt.r.Read(p)
	if err != nil && err != io.EOF {
		lt.torn = true
		var mbe *http.MaxBytesError
		lt.hit = lt.hit || errors.As(err, &mbe)
	}
	return n, err
}

// handleWatermark serves a session's resume point: how many records
// (header included) the server has accepted. A retrying client probes
// this and replays its stream from that index.
func (n *Node) handleWatermark(w http.ResponseWriter, r *http.Request) {
	sess := n.lookup(r.PathValue("id"))
	if sess == nil {
		ingest.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	p := sess.protocol()
	ingest.WriteJSON(w, http.StatusOK, ingest.Watermark{Session: sess.id, Accepted: p.Watermark(), State: p.State})
}

// detachLocked finalizes a session's state, captures the summary and
// report the read endpoints keep serving, and recycles the analyzer
// into the pool. A failed session keeps the partial analysis computed
// up to the failure point. sess.mu must be held: the session table
// records the ending in the same critical section as the session, so
// the table never holds a session as live that the protocol sees
// finished.
func (n *Node) detachLocked(sess *session, state ingest.State, errMsg string) {
	sess.proto.State = state
	n.sessions.Finish(sess.id, sess, state)
	sess.err = errMsg
	if sa := sess.sa; sa != nil {
		sess.stats = sa.Stats()
		if hdr, ok := sa.Header(); ok {
			sess.hdr, sess.hasHdr = hdr, true
		}
		if sess.final == nil {
			sess.final = sa.Snapshot()
		}
		sess.sa = nil
		sa.Reset()
		n.saPool.Put(sa)
	}
}

func (n *Node) fail(sess *session, msg string) {
	sess.mu.Lock()
	failed := sess.proto.State == ingest.StateActive
	if failed {
		n.detachLocked(sess, ingest.StateFailed, msg)
	}
	sess.mu.Unlock()
	if failed {
		n.m.sessionsFailed.Inc()
	}
	n.log.Warn("session failed", "session", sess.id, "err", msg)
}
