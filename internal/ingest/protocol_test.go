package ingest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestAdmitTable walks every cell of the server-side transition:
// session state × where the body starts relative to the watermark ×
// eos × resumable-or-one-shot. The expectations are written out, not
// computed, so the table is the specification.
func TestAdmitTable(t *testing.T) {
	const wm = 10 // the live session's watermark
	proceed := func(resume bool, skip int) Decision {
		return Decision{Action: Proceed, Resume: resume, Skip: skip}
	}
	reject := func(c Code) Decision { return Decision{Action: Reject, Code: c} }
	replay := Decision{Action: Replay}

	type cell struct {
		state     State
		resumable bool
		seq       int
	}
	// A session that is not live (never seen, or failed) has accepted
	// nothing, so its watermark is 0 whatever Accepted still says — to
	// Admit and to a probe alike.
	probe := map[State]int{"": 0, StateActive: wm, StateDone: wm, StateFailed: 0}
	want := map[cell]Decision{
		{"", false, 0}: proceed(false, 0),
		{"", true, 0}:  proceed(false, 0),
		{"", true, 4}:  reject(CodeSeqGap),
		{"", true, wm}: reject(CodeSeqGap),
		{"", true, 15}: reject(CodeSeqGap),

		{StateActive, false, 0}: reject(CodeConflict),
		{StateActive, true, 0}:  proceed(true, wm),
		{StateActive, true, 4}:  proceed(true, wm-4),
		{StateActive, true, wm}: proceed(true, 0),
		{StateActive, true, 15}: reject(CodeSeqGap),

		{StateDone, false, 0}: reject(CodeConflict),
		{StateDone, true, 0}:  replay,
		{StateDone, true, 4}:  replay,
		{StateDone, true, wm}: replay,
		{StateDone, true, 15}: replay,

		{StateFailed, false, 0}: proceed(false, 0),
		{StateFailed, true, 0}:  proceed(false, 0),
		{StateFailed, true, 4}:  reject(CodeSeqGap),
		{StateFailed, true, wm}: reject(CodeSeqGap),
		{StateFailed, true, 15}: reject(CodeSeqGap),
	}
	for c, d := range want {
		sess := Session{State: c.state}
		if c.state != "" {
			sess.Accepted = wm
		}
		if got := sess.Watermark(); got != probe[c.state] {
			t.Errorf("state %q accepted %d: watermark %d, want %d", c.state, sess.Accepted, got, probe[c.state])
		}
		for _, eos := range []bool{false, true} {
			req := Request{Seq: c.seq, Resumable: c.resumable, Eos: eos || !c.resumable}
			if got := sess.Admit(req); got != d {
				t.Errorf("state %q accepted %d, request %+v: got %+v, want %+v", c.state, sess.Accepted, req, got, d)
			}
		}
	}
}

// TestSettleTable is the second half of the transition: how the body
// ended × eos × resumable-or-one-shot decides what the session becomes.
func TestSettleTable(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		end  End
		want Outcome
	}{
		{Request{Resumable: true}, EndClean, Ack},
		{Request{Resumable: true, Eos: true}, EndClean, Complete},
		{Request{Eos: true}, EndClean, Complete},

		{Request{Resumable: true}, EndInterrupted, Suspend},
		{Request{Resumable: true, Eos: true}, EndInterrupted, Suspend},
		{Request{Eos: true}, EndInterrupted, Fail},

		{Request{Resumable: true}, EndTooLarge, Fail},
		{Request{Resumable: true, Eos: true}, EndTooLarge, Fail},
		{Request{Eos: true}, EndTooLarge, Fail},

		{Request{Resumable: true}, EndMalformed, Fail},
		{Request{Resumable: true, Eos: true}, EndMalformed, Fail},
		{Request{Eos: true}, EndMalformed, Fail},
	} {
		if got := tc.req.Settle(tc.end); got != tc.want {
			t.Errorf("%+v ending %d: outcome %d, want %d", tc.req, tc.end, got, tc.want)
		}
	}
}

// TestInterruptedChunkResumesAtWatermark runs the two halves together
// the way a server does: a chunk torn after 3 of its 5 records leaves
// the session active at the advanced watermark, and the retry of the
// same chunk skips exactly what landed.
func TestInterruptedChunkResumesAtWatermark(t *testing.T) {
	sess := Session{State: StateActive, Accepted: 10}
	chunk := Request{Seq: 10, Resumable: true}
	if d := sess.Admit(chunk); d != (Decision{Action: Proceed, Resume: true}) {
		t.Fatalf("chunk at the watermark: %+v", d)
	}
	sess.Accepted += 3 // the body tore after three records
	if out := chunk.Settle(EndInterrupted); out != Suspend {
		t.Fatalf("torn resumable body: outcome %d, want Suspend", out)
	}
	if d := sess.Admit(chunk); d != (Decision{Action: Proceed, Resume: true, Skip: 3}) {
		t.Fatalf("retry of the torn chunk: %+v, want a 3-record skip", d)
	}
	if d := sess.Admit(Request{Seq: 14, Resumable: true}); d.Code != CodeSeqGap {
		t.Fatalf("chunk past the watermark: %+v, want seq_gap", d)
	}
}

func TestCodeTable(t *testing.T) {
	for _, tc := range []struct {
		code       Code
		status     int
		retryAfter string
		retryable  bool
	}{
		{CodeOverload, 429, "1", true},
		{CodeBodyTooLarge, 413, "", false},
		{CodeDraining, 503, "5", true},
		{CodeSeqGap, 412, "", true},
		{CodeBusy, 503, "1", true},
		{CodeConflict, 409, "", false},
		{CodeMalformed, 400, "", false},
		{CodeInterrupted, 503, "1", true},
		{CodeUnavailable, 503, "1", true},
	} {
		w := httptest.NewRecorder()
		tc.code.Reject(w, "why")
		if w.Code != tc.status || tc.code.Status() != tc.status {
			t.Errorf("%s: status %d (Status() %d), want %d", tc.code, w.Code, tc.code.Status(), tc.status)
		}
		if got := w.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.code, got, tc.retryAfter)
		}
		if tc.code.Retryable() != tc.retryable {
			t.Errorf("%s: Retryable() = %v", tc.code, !tc.retryable)
		}
		if got := errorCode(w.Body.Bytes()); got != tc.code {
			t.Errorf("%s: body %s carries code %q", tc.code, w.Body, got)
		}
		if !strings.Contains(w.Body.String(), `"error": "why"`) {
			t.Errorf("%s: body %s lost the error text", tc.code, w.Body)
		}
	}
	// The metric's label universe, in exposition order.
	want := []Code{"overload", "body_too_large", "draining", "seq_gap", "busy"}
	if got := ShedCodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ShedCodes() = %v, want %v", got, want)
	}
	// A plain error carries no code, and its bytes are the pre-code envelope.
	w := httptest.NewRecorder()
	WriteError(w, http.StatusBadRequest, "bad")
	if got := w.Body.String(); got != "{\n  \"error\": \"bad\"\n}\n" || errorCode(w.Body.Bytes()) != "" {
		t.Fatalf("plain error body %q", got)
	}
	if errorCode([]byte("not json, but it says draining")) != "" {
		t.Fatal("a code was read out of a non-JSON body")
	}
}

func TestRequestHeadersRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Eos: true}, // one-shot
		{Resumable: true},
		{Seq: 7, Resumable: true},
		{Seq: 7, Resumable: true, Eos: true},
	} {
		h := http.Header{}
		req.SetHeaders(h)
		got, err := ParseRequest(h)
		if err != nil || got != req {
			t.Errorf("%+v → %v → %+v (err %v)", req, h, got, err)
		}
	}
	if _, err := ParseRequest(http.Header{HeaderSeq: {"-1"}}); err == nil {
		t.Error("negative seq accepted")
	}
	// Eos without Seq is a one-shot request; Eos values other than "1" are not eos.
	if got, _ := ParseRequest(http.Header{HeaderEos: {"0"}}); got != (Request{Eos: true}) {
		t.Errorf("eos-only headers parsed as %+v", got)
	}
	if got, _ := ParseRequest(http.Header{HeaderSeq: {"0"}, HeaderEos: {"true"}}); got.Eos {
		t.Errorf("%s: true parsed as eos", HeaderEos)
	}
}

// FuzzParseRequest throws arbitrary header values — negative, huge,
// non-numeric, duplicated, empty — at the protocol-header parser: it
// must never panic, never yield a negative Seq, and whatever it accepts
// must survive a SetHeaders round trip.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range [][3]string{
		{"0", "", "1"}, {"17", "", ""}, {"-1", "", "1"}, {"", "", "1"}, {"", "5", ""},
		{"99999999999999999999999", "", "1"}, {"9223372036854775807", "", "0"},
		{"abc", "", "1"}, {"3", "4", "1"}, {" 3", "", ""}, {"+3", "", "1"}, {"0x10", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, seq, seqDup, eos string) {
		h := http.Header{}
		h.Add(HeaderSeq, seq)
		if seqDup != "" {
			h.Add(HeaderSeq, seqDup)
		}
		if eos != "" {
			h.Add(HeaderEos, eos)
		}
		req, err := ParseRequest(h)
		if err != nil {
			if req != (Request{}) {
				t.Fatalf("error %v with a non-zero request %+v", err, req)
			}
			return
		}
		if req.Seq < 0 {
			t.Fatalf("negative seq %d from %q", req.Seq, seq)
		}
		if !req.Resumable && (req.Seq != 0 || !req.Eos) {
			t.Fatalf("one-shot request %+v from %v", req, h)
		}
		out := http.Header{}
		req.SetHeaders(out)
		if again, err := ParseRequest(out); err != nil || again != req {
			t.Fatalf("%+v did not round-trip: %+v, %v", req, again, err)
		}
	})
}

// errorCode extracts the rejection code from an error body; "" when
// the body carries none.
func errorCode(body []byte) Code {
	var e ErrorBody
	_ = json.Unmarshal(body, &e) // not an error body: no code
	return e.Code
}

// TestWriteAppendedValidator: an appended answer carries a strong
// validator of its bytes. Only an If-None-Match that is exactly that
// tag gets the 304 (with the tag and no body); anything else gets the
// whole 200 under the same tag.
func TestWriteAppendedValidator(t *testing.T) {
	answer := func(body, ifNoneMatch string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, "/query", nil)
		if ifNoneMatch != "" {
			r.Header.Set("If-None-Match", ifNoneMatch)
		}
		w := httptest.NewRecorder()
		WriteAppended(w, r, func(dst []byte) []byte { return append(dst, body...) })
		return w
	}
	const body = "{\n  \"records\": []\n}\n"
	tag := answer(body, "").Header().Get("ETag")
	if len(tag) < 3 || tag[0] != '"' || tag[len(tag)-1] != '"' || strings.Contains(tag[1:len(tag)-1], `"`) {
		t.Fatalf("ETag %q is not a strong entity tag", tag)
	}
	for _, c := range []struct {
		ifNoneMatch string
		status      int
	}{
		{"", http.StatusOK},
		{tag, http.StatusNotModified},
		{`"0"`, http.StatusOK},
		{"*", http.StatusOK},
		{`"0", ` + tag, http.StatusOK},
		{"W/" + tag, http.StatusOK},
	} {
		w := answer(body, c.ifNoneMatch)
		wantBody, wantLen := body, fmt.Sprint(len(body))
		if c.status == http.StatusNotModified {
			wantBody, wantLen = "", ""
		}
		if w.Code != c.status || w.Header().Get("ETag") != tag || w.Body.String() != wantBody || w.Header().Get("Content-Length") != wantLen {
			t.Errorf("If-None-Match %q: %d, ETag %q, Content-Length %q, body %q; want %d, ETag %q, Content-Length %q, body %q",
				c.ifNoneMatch, w.Code, w.Header().Get("ETag"), w.Header().Get("Content-Length"), w.Body.String(), c.status, tag, wantLen, wantBody)
		}
	}
	if again := answer(body, "").Header().Get("ETag"); again != tag {
		t.Errorf("equal bytes tagged %q and %q", tag, again)
	}
	seen := map[string]string{}
	for _, b := range []string{"", "[]\n", "[]\n ", "{}\n", body, body[:len(body)-1]} {
		tag := answer(b, "").Header().Get("ETag")
		if other, ok := seen[tag]; ok {
			t.Errorf("%q and %q share the tag %s", b, other, tag)
		}
		seen[tag] = b
	}
}
