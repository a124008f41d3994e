// Package ingest owns dominod's resumable-ingest protocol — the one
// definition both tiers and the client read — and is its retrying
// client. The client uploads a session trace with seeded jittered
// exponential backoff and, when a connection drops mid-stream, resumes
// from the server's record watermark instead of starting the session
// over.
//
// # Protocol
//
// A session upload is POST /ingest?session=ID with the trace stream as
// the body. Two headers (ParseRequest / Request.SetHeaders) make it
// resumable:
//
//   - X-Domino-Seq: the record index at which this body starts, where
//     record 0 is the stream header. A request without the header is
//     the legacy one-shot contract (body EOF completes the session).
//   - X-Domino-Eos: "1" marks the request that carries the end of the
//     session; the session completes only when such a request finishes
//     with every record accepted.
//
// The server tracks how many records it has accepted per session and
// serves that count at GET /sessions/{id}/watermark. A retrying client
// probes the watermark and replays from it: JSONL bodies are trimmed
// to the unacknowledged suffix (one record per line, so the watermark
// is a line offset); binary bodies are resent whole with
// X-Domino-Seq: 0, because dictionary frames make a mid-stream byte
// offset meaningless — the server skips the already-accepted prefix
// and counts the duplicates as deduped, not double-analyzed.
//
// Through dominolb, POST /ingest and GET /report/{id} are answered with
// a 307 Temporary Redirect to the node that owns the session. The
// Client follows it as any net/http client does, replaying the body and
// the headers to the node (so does curl -L); the watermark probe goes
// through dominolb, which relays it and so learns of a dead node.
//
// # Server side
//
// A server keeps a Session (State, Accepted) per session ID and makes
// two pure, HTTP-free decisions per request. Session.Admit, before the
// body is read: proceed (skipping the already-accepted prefix), replay
// the final report of a done session, or reject with a typed Code — its
// doc comment carries the state table. Request.Settle, once the body
// has ended (clean, torn, undecodable, or over the size cap): acknowledge
// the chunk with 202 + Watermark, complete the session with 200 + report,
// suspend it at its watermark, or fail it. dominod's handler and the
// test stub call these; neither re-derives them. dominolb calls neither:
// it steers each request to the node that decides.
//
// Every non-2xx answer is an ErrorBody: {"error": text} plus, on a
// typed rejection, {"code": Code}. A Code fixes its HTTP status and
// Retry-After hint (Code.Reject writes all three), so a client tells
// "draining" from "busy" by the code, never by matching text.
//
// Retry classification (Retryable): transport errors, 429 (overload),
// 412 (seq gap), and 5xx responses retry; 4xx contract violations (400,
// 404, 409, 413, 415) fail permanently. A Retry-After header, when
// present, overrides the computed backoff if longer.
//
// # Session table
//
// Both tiers keep their sessions in a Table: dominod its sessions,
// dominolb its routing entries. Admit resolves an ID under the table's
// one lock; an empty ID mints one the table does not hold from the
// tier's format (s%04d, lb-%d). A held live or done entry is returned; a
// missing or failed one is replaced by a fresh entry — the only
// replacement Session.Admit's state table allows. Finish records how an
// entry ended, done or failed, and the table decides replacement and
// retention from that record alone. After an admission the table holds
// at most its bound, or only live entries: those that finished earliest
// leave first, and a live entry never does. List is in admission order;
// Len counts live and all entries; Stats totals the admissions, endings
// and drops, which each tier serves as its session counters.
package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Options configures a Client.
type Options struct {
	// BaseURL is the dominod root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient issues the requests (default http.DefaultClient).
	// Fault injection wraps here: &http.Client{Transport: flaky}.
	HTTPClient *http.Client
	// Retries is how many times a failed upload is retried after the
	// first attempt (default 0: one shot).
	Retries int
	// Backoff is the base delay before the first retry; attempt n
	// waits Backoff·2ⁿ·jitter where jitter ∈ [0.5, 1.0) (default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the computed delay (default 2s).
	MaxBackoff time.Duration
	// Seed drives the jitter; same seed = same delay schedule.
	Seed int64
	// Sleep is the delay function, injectable for tests
	// (default time.Sleep). It is called with each retry delay.
	Sleep func(time.Duration)
}

// UploadStats reports what an Upload took.
type UploadStats struct {
	Attempts int // POSTs issued, including the successful one
	Resumed  int // retries that replayed from a nonzero watermark
	// ShedRetries counts retries forced by load shedding or drain:
	// 429s and 503s, the statuses dominod answers with (and dominolb,
	// when it has no backend) to tell the client "back off and try
	// again".
	ShedRetries int
}

// Client uploads session traces with retry and resume. Safe for
// sequential use; give concurrent uploaders their own Client so the
// jitter sequence stays deterministic.
type Client struct {
	opts Options
	rng  *rand.Rand
}

// New builds a Client from opts, applying defaults.
func New(opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Client{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Upload streams a complete session (header through final record) to
// the server, retrying and resuming per the package protocol.
// contentType must be ContentTypeJSONL or ContentTypeBinary and match
// the payload encoding.
func (c *Client) Upload(ctx context.Context, session, contentType string, payload []byte) (UploadStats, error) {
	var stats UploadStats
	jsonl := contentType != ContentTypeBinary
	seq, body := 0, payload
	var lastErr error
	for attempt := 0; ; attempt++ {
		stats.Attempts++
		status, retryAfter, err := c.post(ctx, session, contentType, seq, body)
		if err == nil && status/100 == 2 {
			return stats, nil
		}
		switch {
		case err != nil:
			lastErr = fmt.Errorf("ingest %s attempt %d: %w", session, stats.Attempts, err)
		case Retryable(status):
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				stats.ShedRetries++
			}
			lastErr = fmt.Errorf("ingest %s attempt %d: server returned %d", session, stats.Attempts, status)
		default:
			return stats, fmt.Errorf("ingest %s: permanent failure, server returned %d", session, status)
		}
		if attempt >= c.opts.Retries {
			return stats, fmt.Errorf("%w (retries exhausted)", lastErr)
		}
		c.opts.Sleep(c.backoff(attempt, retryAfter))
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		// Resume from wherever the server got to. A failed probe keeps
		// the previous offset — worst case we resend bytes the server
		// dedups anyway.
		if w, werr := c.Watermark(ctx, session); werr == nil {
			if w.Accepted > 0 {
				stats.Resumed++
			}
			if jsonl {
				seq, body = w.Accepted, trimRecords(payload, w.Accepted)
			} else {
				seq, body = 0, payload
			}
		}
	}
}

func (c *Client) post(ctx context.Context, session, contentType string, seq int, body []byte) (status int, retryAfter time.Duration, err error) {
	u := c.opts.BaseURL + "/ingest?session=" + url.QueryEscape(session)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	Request{Seq: seq, Resumable: true, Eos: true}.SetHeaders(req.Header)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// Watermark probes how many records the server has accepted for a
// session. A session the server has never seen reports 0.
func (c *Client) Watermark(ctx context.Context, session string) (Watermark, error) {
	u := c.opts.BaseURL + "/sessions/" + url.PathEscape(session) + "/watermark"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Watermark{}, err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return Watermark{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Watermark{Session: session}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return Watermark{}, fmt.Errorf("watermark %s: server returned %d", session, resp.StatusCode)
	}
	var w Watermark
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&w); err != nil {
		return Watermark{}, fmt.Errorf("watermark %s: %w", session, err)
	}
	return w, nil
}

// Report fetches the session's report body from GET /report/{id}.
func (c *Client) Report(ctx context.Context, session string) ([]byte, error) {
	u := c.opts.BaseURL + "/report/" + url.PathEscape(session)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report %s: server returned %d", session, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// backoff computes the delay before retry n (0-based): seeded jittered
// exponential, capped, overridden by a longer server Retry-After.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	d := c.opts.Backoff << uint(n)
	if d <= 0 || d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// trimRecords drops the first n newline-terminated records from a
// JSONL payload; record 0 is the header line.
func trimRecords(payload []byte, n int) []byte {
	rest := payload
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil
		}
		rest = rest[nl+1:]
	}
	return rest
}
