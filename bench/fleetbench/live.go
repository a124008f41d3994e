package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/domino5g/domino/internal/ingest"
)

// liveSession is one call being streamed: its corpus item, when it
// starts, which phase offered it, and how far it has got.
type liveSession struct {
	id    string
	it    *item
	start time.Time
	phase int // -1 is warm-up
}

// phaseStats is what one offered rate produced.
type phaseStats struct {
	rate     float64
	detect   samples    // chunk due → covering /report body received, ms
	ack      samples    // chunk POST → 202/200, ms
	lagByDue []lagPoint // chunk due → POST start (generator lateness)
	tally    tally
	mu       sync.Mutex
}

type lagPoint struct {
	due time.Time
	lag time.Duration
}

// lagGrowth is the generator's median lateness over the last third of
// the phase's ops minus that over the first third, by due time. A
// backlog shows as growth; a steady system shows none.
func (p *phaseStats) lagGrowth() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	pts := append([]lagPoint(nil), p.lagByDue...)
	if len(pts) < 6 {
		return 0
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].due.Before(pts[j].due) })
	third := len(pts) / 3
	med := func(part []lagPoint) float64 {
		v := make([]float64, len(part))
		for i, pt := range part {
			v[i] = float64(pt.lag)
		}
		return medianOf(v)
	}
	return time.Duration(med(pts[len(pts)-third:]) - med(pts[:third]))
}

// sustained reports whether the phase met the contract for
// sustained_sessions_per_s: tail detection latency within the limit,
// nothing failed, and no growing backlog.
func (p *phaseStats) sustained() bool {
	_, failed, _ := p.tally.counts()
	return failed == 0 && p.detect.count() > 0 && p.detect.percentile(99) <= detectLimitMs && p.lagGrowth() <= lagGrowthLimit
}

// livePlan is what fleet-live offers: the rates, each for length ÷
// len(rates) after a warm-up at the first, and the chunk period. With
// burst set it is the calibration run instead: that many sessions all
// due at once with every chunk due at once, which the senders then work
// through as a closed loop — the chunk capacity the rates are set from.
type livePlan struct {
	rates  []float64
	warm   time.Duration
	length time.Duration
	every  time.Duration
	burst  int
}

// runLive is the fleet-live workload: an open loop of seeded Poisson
// session arrivals through dominolb to two journaling nodes. Each call
// is chunksPerCall resumable JSONL chunks, one due every plan.every;
// after each acknowledgement the sender fetches /report/{id}. The
// offered rates run back to back.
func runLive(ctx context.Context, e *env, plan livePlan, rec *recorder) (*outcome, error) {
	o := newOutcome()
	warm, rates := plan.warm, plan.rates
	phaseLen := plan.length / time.Duration(len(rates))
	phases := make([]*phaseStats, len(rates))
	for i, r := range rates {
		phases[i] = &phaseStats{rate: r}
	}

	// Lay the whole schedule out before the clock starts.
	t0 := time.Now().Add(50 * time.Millisecond)
	var sessions []*liveSession
	add := func(phase int, offset time.Duration, rate float64, span time.Duration) {
		for _, a := range arrivals(e.corpus.Seed*16+int64(phase+1), rate, span) {
			n := len(sessions)
			sessions = append(sessions, &liveSession{
				id:    fmt.Sprintf("live-%d-%d", e.corpus.Seed, n),
				it:    e.corpus.pick(n),
				start: t0.Add(offset + a),
				phase: phase,
			})
		}
	}
	add(-1, 0, rates[0], warm)
	for i, r := range rates {
		add(i, warm+time.Duration(i)*phaseLen, r, phaseLen)
	}
	for n := 0; n < plan.burst; n++ {
		sessions = append(sessions, &liveSession{id: fmt.Sprintf("burst-%d-%d", e.corpus.Seed, n), it: e.corpus.pick(n), start: t0.Add(warm)})
	}
	first := make([]op, len(sessions))
	for i, s := range sessions {
		first[i] = op{Due: s.start, Session: i}
	}

	clients := make([]*http.Client, senders())
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	root := rec.begin(0, 0, "workload")
	sessSpans := make([]int64, len(sessions))

	// The measured window opens when the warm-up's last arrival is past.
	var w *window
	var werr error
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		select {
		case <-time.After(time.Until(t0.Add(warm))):
			w, werr = openWindow(e.fleet, o)
		case <-ctx.Done():
			werr = ctx.Err()
		}
	}()

	var teed atomic.Int64
	finalAck := o.sample("ingest.final_chunk_ack")
	newOpenLoop(first).run(len(clients), func(wk int, x op) (op, bool) {
		s := sessions[x.Session]
		c := clients[wk]
		if x.Step == 0 {
			sessSpans[x.Session] = rec.begin(root, int64(x.Session+1), "session")
		}
		sp := sessSpans[x.Session]
		last := x.Step == chunksPerCall-1

		sent := time.Now()
		post := rec.begin(sp, int64(x.Session+1), "ingest.chunk")
		status, body, err := postChunk(ctx, c, e.fleet.entry, s, x.Step, last)
		acked := time.Now()
		rec.end(post, int64(len(s.it.chunk(x.Step))))
		if err == nil {
			want := http.StatusAccepted
			if last {
				want = http.StatusOK
			}
			if status != want {
				err = fmt.Errorf("%s chunk %d: status %d, want %d: %.200s", s.id, x.Step, status, want, body)
			}
		}
		if err == nil {
			fetch := rec.begin(sp, int64(x.Session+1), "report.get")
			body, err = get(ctx, c, e.fleet.entry+"/report/"+url.PathEscape(s.id))
			rec.end(fetch, 0)
		}
		seen := time.Now()
		if err == nil {
			var rb reportBody
			if rb, err = parseReport(body); err == nil {
				if last {
					err = checkFinal(rb, s.it.Ref)
				} else {
					err = checkLive(rb, s.it, x.Step)
				}
			}
		}
		if last || err != nil {
			rec.end(sp, int64(s.it.Records))
		}

		if s.phase >= 0 {
			p := phases[s.phase]
			p.tally.record(err)
			o.tally.record(err)
			if err != nil {
				// The session's remaining chunks were due and will never be
				// delivered: each is a failed operation too.
				for k := x.Step + 1; k < chunksPerCall; k++ {
					p.tally.record(err)
					o.tally.record(err)
				}
			} else {
				p.ack.add(acked.Sub(sent))
				if last {
					finalAck.add(acked.Sub(sent))
				}
				p.detect.add(seen.Sub(x.Due))
				p.mu.Lock()
				p.lagByDue = append(p.lagByDue, lagPoint{due: x.Due, lag: sent.Sub(x.Due)})
				p.mu.Unlock()
				// The headline latency pools the three rates and is net of
				// the generator's own lateness. Per rate and from the due
				// time (p.detect) the median also holds how often two
				// sessions' 50 ms chunk periods happen to coincide on the
				// senders, which is the seed's doing and not the system's:
				// a quarter of the median, and most of its run-to-run spread.
				if last {
					o.completed(s.it.Records, seen.Sub(sent), true)
				} else {
					// dominolb tees every acknowledged non-final chunk into
					// the session's failover replay buffer.
					o.completed(0, seen.Sub(sent), true)
					teed.Add(int64(len(s.it.chunk(x.Step))))
				}
			}
		}
		if last || err != nil {
			return op{}, false
		}
		return op{Due: s.start.Add(time.Duration(x.Step+1) * plan.every), Session: x.Session, Step: x.Step + 1}, true
	})

	<-opened
	if werr != nil {
		return nil, werr
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	rec.end(root, o.records)

	sustainedRate := 0.0
	allLag, allAck := o.sample("ingest.generator_lag"), o.sample("ingest.chunk_ack")
	for i, p := range phases {
		tag := fmt.Sprintf("r%d", i+1)
		o.extra["detect_p50_ms@"+tag] = p.detect.percentile(50)
		o.extra["detect_p99_ms@"+tag] = p.detect.percentile(99)
		o.extra["detect_n@"+tag] = float64(p.detect.count())
		o.extra["lag_growth_ms@"+tag] = float64(p.lagGrowth()) / float64(time.Millisecond)
		o.extra["rate@"+tag] = p.rate
		if p.sustained() {
			sustainedRate = p.rate
			o.extra["sustained@"+tag] = 1
		}
		for _, pt := range p.lagByDue {
			allLag.add(pt.lag)
		}
		allAck.v = append(allAck.v, p.ack.v...)
	}
	o.extra["sustained_sessions_per_s"] = sustainedRate
	o.extra["tee_bytes"] = float64(teed.Load())
	return o, ctx.Err()
}

// postChunk sends chunk i of a session under the resumable-ingest
// contract and returns the status and body.
func postChunk(ctx context.Context, c *http.Client, base string, s *liveSession, i int, last bool) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/ingest?session="+url.QueryEscape(s.id), bytes.NewReader(s.it.chunk(i)))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ingest.ContentTypeJSONL)
	req.Header.Set(ingest.HeaderSeq, strconv.Itoa(s.it.seq(i)))
	if last {
		req.Header.Set(ingest.HeaderEos, "1")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// calibration is the one-off run liveRates were frozen from.
type calibration struct {
	Seed              int64      `json:"seed"`
	Sessions          int        `json:"sessions"`
	ChunkOps          int64      `json:"chunk_ops"`
	Failed            int        `json:"failed"`
	WallS             float64    `json:"wall_s"`
	ChunkOpsPerS      float64    `json:"closed_loop_chunk_ops_per_s"`
	ProbeUs           float64    `json:"probe_us"`
	HostSpeed         float64    `json:"host_speed"`
	SessionsPerS      float64    `json:"closed_loop_sessions_per_s"`
	Shares            [3]float64 `json:"target_shares"`
	ImpliedRates      [3]float64 `json:"implied_sessions_per_s"`
	FrozenRates       [3]float64 `json:"frozen_sessions_per_s"`
	Provenance        provenance `json:"provenance"`
	ClosedLoopSenders int        `json:"senders"`
}

// calibrate measures fleet-live's closed-loop chunk capacity: the same
// chunk operation (POST a 0.5 s JSONL chunk through dominolb, then GET
// the report), with nothing paced, on the same senders.
func calibrate(ctx context.Context, seed int64) (*calibration, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e, err := setUp(ctx, root, "fleet-live", seed)
	if err != nil {
		return nil, err
	}
	defer e.fleet.stop()
	const sessions = 200
	o, err := runLive(ctx, e, livePlan{rates: []float64{0}, burst: sessions}, nil)
	if err != nil {
		return nil, err
	}
	_, failed, _ := o.tally.counts()
	c := &calibration{
		Seed: seed, Sessions: sessions, ChunkOps: o.ops, Failed: failed, WallS: o.wall.Seconds(),
		ChunkOpsPerS: float64(o.ops) / o.wall.Seconds(), Shares: [3]float64{0.25, 0.5, 0.8},
		FrozenRates: liveRates, Provenance: provenanceOf(root, e, seed), ClosedLoopSenders: senders(),
		ProbeUs: o.host.probeUs, HostSpeed: o.host.speed,
	}
	c.SessionsPerS = c.ChunkOpsPerS / chunksPerCall
	for i, share := range c.Shares {
		c.ImpliedRates[i] = share * c.SessionsPerS
	}
	return c, nil
}
