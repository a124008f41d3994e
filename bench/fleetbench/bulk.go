package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/domino5g/domino/internal/ingest"
)

// runBulk is the bulk-binary / bulk-jsonl workload: senders() clients,
// each uploading whole calls back to back through ingest.Client.Upload
// straight to the single dominod, fetching every final report and
// checking it against the reference.
func runBulk(ctx context.Context, e *env, binary bool, warm, length time.Duration, rec *recorder) (*outcome, error) {
	contentType, label := ingest.ContentTypeJSONL, "jsonl"
	if binary {
		contentType, label = ingest.ContentTypeBinary, "binary"
	}
	// One ingest.Client per sender, each on its own connection (and so
	// with its own deterministic retry jitter).
	clients := make([]*ingest.Client, senders())
	for i := range clients {
		hc := newClient()
		defer hc.CloseIdleConnections()
		clients[i] = ingest.New(ingest.Options{BaseURL: e.fleet.entry, HTTPClient: hc, Retries: 2, Seed: e.corpus.Seed + int64(i)})
	}

	o := newOutcome()
	attempts := o.sample("ingest.attempts")
	var next atomic.Int64 // upload counter: unique session ids, seeded item cycle
	root := rec.begin(0, 0, "workload")

	// loop runs every client until the deadline; measured uploads are
	// booked, warm-up uploads only checked.
	loop := func(deadline time.Time, measured bool) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *ingest.Client) {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					n := int(next.Add(1))
					it := e.corpus.pick(n)
					id := fmt.Sprintf("%s-%d-%d", label, e.corpus.Seed, n)
					payload := it.JSONL
					if binary {
						payload = it.Binary
					}
					stats, took, err := uploadChecked(ctx, c, rec, root, int64(n), id, contentType, payload, it)
					if !measured {
						continue
					}
					o.tally.record(err)
					if err == nil {
						attempts.addValue(float64(stats.Attempts))
						o.completed(it.Records, took, true)
					}
				}
			}(c)
		}
		wg.Wait()
	}

	loop(time.Now().Add(warm), false)
	w, err := openWindow(e.fleet, o)
	if err != nil {
		return nil, err
	}
	loop(time.Now().Add(length), true)
	if err := w.close(); err != nil {
		return nil, err
	}
	rec.end(root, o.records)
	return o, ctx.Err()
}

// uploadChecked uploads one whole call, fetches its final report and
// checks it against the reference. It returns the client's upload stats
// and how long the upload itself took (POST start → 200 carrying the
// final report); the report fetch is the correctness gate, not part of
// the user's wait.
func uploadChecked(ctx context.Context, c *ingest.Client, rec *recorder, parent, trace int64, id, contentType string, payload []byte, it *item) (ingest.UploadStats, time.Duration, error) {
	sess := rec.begin(parent, trace, "session")
	defer func() { rec.end(sess, int64(it.Records)) }()
	up := rec.begin(sess, trace, "ingest.upload")
	t0 := time.Now()
	stats, err := c.Upload(ctx, id, contentType, payload)
	took := time.Since(t0)
	rec.end(up, int64(it.Records))
	if err != nil {
		return stats, took, err
	}
	fetch := rec.begin(sess, trace, "report.get")
	body, err := c.Report(ctx, id)
	rec.end(fetch, 0)
	if err != nil {
		return stats, took, err
	}
	rb, err := parseReport(body)
	if err != nil {
		return stats, took, err
	}
	return stats, took, checkFinal(rb, it.Ref)
}
