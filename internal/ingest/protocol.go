package ingest

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
)

// Protocol header and media-type names shared by client and server.
const (
	// HeaderSeq carries the record index at which the request body
	// starts; record 0 is the stream header.
	HeaderSeq = "X-Domino-Seq"
	// HeaderEos marks the request that carries the end of the session.
	HeaderEos = "X-Domino-Eos"

	// ContentTypeBinary selects the binary columnar trace format.
	ContentTypeBinary = "application/x-domino-trace"
	// ContentTypeJSONL selects the JSONL trace format.
	ContentTypeJSONL = "application/x-ndjson"
)

// State is a session's lifecycle state as the wire shows it (in
// Watermark and in every report). The zero value means the server
// holds no such session.
type State string

// The session states.
const (
	// StateActive: the session accepts further chunks.
	StateActive State = "active"
	// StateDone: the final chunk landed; the report is final and a
	// resent final chunk is answered with it again.
	StateDone State = "done"
	// StateFailed: the session cannot continue; its ID is free for a
	// fresh upload to replace.
	StateFailed State = "failed"
)

// Watermark is the GET /sessions/{id}/watermark response body, and the
// 202 acknowledgement of a non-final chunk.
type Watermark struct {
	Session  string `json:"session"`
	Accepted int    `json:"accepted"`
	State    State  `json:"state"`
}

// Code is a typed rejection: why a tier refused or could not finish an
// ingest request. It travels as the "code" field of the error body.
type Code string

// The rejection codes. The first five are the reason label values of
// dominod_ingest_rejected_total.
const (
	// CodeOverload: every ingest slot stayed busy past the admission wait.
	CodeOverload Code = "overload"
	// CodeBodyTooLarge: the body exceeds the node's cap; resending the
	// same payload cannot succeed.
	CodeBodyTooLarge Code = "body_too_large"
	// CodeDraining: the node is shutting down; retry on another node.
	CodeDraining Code = "draining"
	// CodeSeqGap: the body starts past the session's watermark; probe
	// it and replay from there.
	CodeSeqGap Code = "seq_gap"
	// CodeBusy: an interrupted upload still owns the session.
	CodeBusy Code = "busy"
	// CodeConflict: a one-shot upload reused the ID of a live session.
	CodeConflict Code = "conflict"
	// CodeMalformed: the body arrived whole and does not decode; resending
	// the same bytes cannot succeed.
	CodeMalformed Code = "malformed"
	// CodeInterrupted: a resumable body was torn mid-stream; the session
	// is suspended at its watermark.
	CodeInterrupted Code = "interrupted"
	// CodeUnavailable: the balancer has no backend to take the request
	// right now; a retry may find one.
	CodeUnavailable Code = "unavailable"
)

type codeSpec struct {
	code       Code
	status     int
	retryAfter string // Retry-After seconds; "" sends none
	shed       bool   // counted in dominod_ingest_rejected_total
}

// codes is the protocol's rejection table. Order is the exposition
// order of the shed reasons.
var codes = []codeSpec{
	{CodeOverload, http.StatusTooManyRequests, "1", true},
	{CodeBodyTooLarge, http.StatusRequestEntityTooLarge, "", true},
	{CodeDraining, http.StatusServiceUnavailable, "5", true},
	{CodeSeqGap, http.StatusPreconditionFailed, "", true},
	{CodeBusy, http.StatusServiceUnavailable, "1", true},
	{CodeConflict, http.StatusConflict, "", false},
	{CodeMalformed, http.StatusBadRequest, "", false},
	{CodeInterrupted, http.StatusServiceUnavailable, "1", false},
	{CodeUnavailable, http.StatusServiceUnavailable, "1", false},
}

// ShedCodes lists the codes a node counts as shed-before-analysis: the
// label universe of dominod_ingest_rejected_total{reason}.
func ShedCodes() []Code {
	var out []Code
	for _, c := range codes {
		if c.shed {
			out = append(out, c.code)
		}
	}
	return out
}

func (c Code) spec() codeSpec {
	for _, e := range codes {
		if e.code == c {
			return e
		}
	}
	return codeSpec{code: c, status: http.StatusInternalServerError}
}

// Status is the HTTP status the code is answered with.
func (c Code) Status() int { return c.spec().status }

// Retryable reports whether a client should retry after this code.
func (c Code) Retryable() bool { return Retryable(c.Status()) }

// Retryable classifies an ingest answer by status: 429 (overload), 412
// (seq gap) and 5xx retry; every other non-2xx is a contract violation
// (400, 404, 409, 413, 415) and fails permanently.
func Retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusPreconditionFailed ||
		status/100 == 5
}

// ErrorBody is the JSON body of every non-2xx answer. Code is set on
// typed rejections and omitted on plain errors.
type ErrorBody struct {
	Error string `json:"error"`
	Code  Code   `json:"code,omitempty"`
}

// WriteJSON writes the response envelope both tiers share: indented
// JSON under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// answerBufs recycles the buffers WriteAppended renders into. One that
// grew past answerBufKeep is left to the collector, so a single huge
// answer does not pin its size for good.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

const answerBufKeep = 1 << 20

// answerSeed keys the tags WriteAppended puts on answers. It is drawn
// once per process, so a tag names bytes only to the process that sent it.
var answerSeed = maphash.MakeSeed()

// WriteAppended answers with the JSON that render appends to the
// buffer it is given, laid out as WriteJSON would have, in one write
// with its Content-Length: the query surface renders by appending
// (rcastore's answer encoders on a node, the splice in dominolb), so the
// size a reflecting encoder only finds by streaming is known up front.
// The answer's ETag is a hash of its bytes, a strong validator: a
// request whose If-None-Match is exactly that tag gets a 304 and no
// body, and any other (another tag, a list, *, a weak tag) the 200.
func WriteAppended(w http.ResponseWriter, r *http.Request, render func(dst []byte) []byte) {
	buf := answerBufs.Get().(*[]byte)
	*buf = render((*buf)[:0])
	var tag [18]byte
	etag := string(append(strconv.AppendUint(append(tag[:0], '"'), maphash.Bytes(answerSeed, *buf), 16), '"'))
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(*buf)
	}
	if cap(*buf) <= answerBufKeep {
		answerBufs.Put(buf)
	}
}

// WriteError writes a plain (untyped) error body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg})
}

// Reject answers a request with the code's status, its Retry-After
// hint, and an error body carrying msg and the code.
func (c Code) Reject(w http.ResponseWriter, msg string) {
	e := c.spec()
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	WriteJSON(w, e.status, ErrorBody{Error: msg, Code: c})
}

// Request is the protocol half of one POST /ingest: where its body
// starts and whether it ends the session.
type Request struct {
	// Seq is the record index the body starts at; record 0 is the
	// stream header. Never negative.
	Seq int
	// Resumable is true when the request carries HeaderSeq. Without it
	// the request is the one-shot contract: body EOF ends the session
	// and any mid-stream error fails it.
	Resumable bool
	// Eos is true when the body carries the end of the session; always
	// true for a one-shot request.
	Eos bool
}

// ParseRequest reads the protocol headers of an ingest request.
func ParseRequest(h http.Header) (Request, error) {
	v := h.Get(HeaderSeq)
	if v == "" {
		return Request{Eos: true}, nil
	}
	seq, err := strconv.Atoi(v)
	if err != nil || seq < 0 {
		return Request{}, fmt.Errorf("bad %s %q: want a record index", HeaderSeq, v)
	}
	return Request{Seq: seq, Resumable: true, Eos: h.Get(HeaderEos) == "1"}, nil
}

// SetHeaders writes the request's protocol headers; a one-shot request
// carries none.
func (r Request) SetHeaders(h http.Header) {
	if !r.Resumable {
		return
	}
	h.Set(HeaderSeq, strconv.Itoa(r.Seq))
	if r.Eos {
		h.Set(HeaderEos, "1")
	}
}

// Session is what the protocol needs to know of one session on a
// server: its state and how many records (header included, as record
// 0) it has accepted — the resume watermark. The zero Session is one
// the server has never seen.
type Session struct {
	State    State
	Accepted int
}

// Watermark is the record index the session's next chunk is measured
// against and a probe is answered with: what an active or done session
// has accepted, and 0 for one the server has never seen or that failed —
// a fresh session replaces it, and that has accepted nothing.
func (s Session) Watermark() int {
	if s.State == StateActive || s.State == StateDone {
		return s.Accepted
	}
	return 0
}

// Action is what a server does with an ingest request.
type Action uint8

// The actions.
const (
	// Proceed: analyze the body, minus its first Decision.Skip records.
	Proceed Action = iota
	// Replay: the session already completed and the client lost the
	// answer; send the final report again.
	Replay
	// Reject: answer with Decision.Code.
	Reject
)

// Decision is Admit's verdict on one request.
type Decision struct {
	Action Action
	// Resume (with Proceed) continues the existing active session; when
	// false a fresh session is registered, replacing a failed one.
	Resume bool
	// Skip (with Proceed) is how many leading records of the body the
	// session has already accepted and must not analyze twice.
	Skip int
	// Code (with Reject) is the typed rejection.
	Code Code
}

// Admit decides what a request means for the session it names. It is
// the one place the seq/watermark arithmetic lives:
//
//	state    one-shot        resumable, seq ≤ accepted    resumable, seq > accepted
//	(none)   fresh session   fresh session (seq 0 only)   412 seq_gap
//	active   409 conflict    resume, skip accepted − seq  412 seq_gap
//	done     409 conflict    replay the final report      replay the final report
//	failed   fresh session   fresh session (seq 0 only)   412 seq_gap
//
// A fresh session has accepted nothing, so for (none) and failed the
// watermark a resumable request is measured against is 0 (Watermark).
func (s Session) Admit(r Request) Decision {
	live := s.State == StateActive || s.State == StateDone
	wm := s.Watermark()
	switch {
	case !r.Resumable && live:
		return Decision{Action: Reject, Code: CodeConflict}
	case r.Resumable && s.State == StateDone:
		return Decision{Action: Replay}
	case r.Seq > wm:
		return Decision{Action: Reject, Code: CodeSeqGap}
	}
	return Decision{Action: Proceed, Resume: live, Skip: wm - r.Seq}
}

// End is how the server's read of a request body ended.
type End uint8

// The body endings.
const (
	// EndClean: read to EOF with every record accepted.
	EndClean End = iota
	// EndInterrupted: a transport error cut the body short.
	EndInterrupted
	// EndTooLarge: the body ran past the server's size cap.
	EndTooLarge
	// EndMalformed: the body arrived whole and does not decode.
	EndMalformed
)

// Outcome is what a request leaves behind once its body has ended.
type Outcome uint8

// The outcomes.
const (
	// Ack: a clean chunk boundary; the session stays active and the
	// answer is 202 with its Watermark.
	Ack Outcome = iota
	// Complete: the final chunk landed; the session is done and the
	// answer is 200 with the final report.
	Complete
	// Suspend: a resumable body was interrupted; the session stays
	// active at its watermark and the answer is CodeInterrupted.
	Suspend
	// Fail: the session cannot continue. The answer is
	// CodeBodyTooLarge after EndTooLarge, CodeMalformed after
	// EndMalformed, else a plain 400.
	Fail
)

// Settle decides what the end of a request's body does to its session.
func (r Request) Settle(end End) Outcome {
	switch {
	case end == EndTooLarge || end == EndMalformed:
		return Fail
	case end == EndInterrupted && r.Resumable:
		return Suspend
	case end == EndInterrupted:
		return Fail
	case r.Eos:
		return Complete
	}
	return Ack
}
