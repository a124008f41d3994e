package main

import (
	"encoding/json"
	"fmt"
	"sync"
)

// reportBody is the part of dominod's /report/{id} (and final /ingest)
// payload the benchmark checks.
type reportBody struct {
	Session     string `json:"session"`
	State       string `json:"state"`
	Records     int    `json:"records"`
	Windows     int    `json:"windows"`
	WatermarkUs int64  `json:"watermark_us"`
	ChainEvents int    `json:"chain_events"`
	Causes      map[string]struct {
		Events int `json:"events"`
	} `json:"causes"`
	Consequences map[string]struct {
		Events int `json:"events"`
	} `json:"consequences"`
	TopChains []chainCount `json:"top_chains"`
}

func parseReport(body []byte) (reportBody, error) {
	var rb reportBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return rb, fmt.Errorf("report body: %w", err)
	}
	return rb, nil
}

// checkFinal compares a completed session's report with its reference:
// records, windows, chain_events, every cause and consequence class's
// event count, and the ranked top_chains.
func checkFinal(rb reportBody, ref reference) error {
	if rb.State != "done" {
		return fmt.Errorf("state %q, want done", rb.State)
	}
	if rb.Records != ref.Records || rb.Windows != ref.Windows || rb.ChainEvents != ref.ChainEvents {
		return fmt.Errorf("records/windows/chain_events %d/%d/%d, want %d/%d/%d",
			rb.Records, rb.Windows, rb.ChainEvents, ref.Records, ref.Windows, ref.ChainEvents)
	}
	for class, want := range ref.Causes {
		if got, ok := rb.Causes[class]; !ok || got.Events != want {
			return fmt.Errorf("cause %s: %d events, want %d", class, got.Events, want)
		}
	}
	for class, want := range ref.Consequences {
		if got, ok := rb.Consequences[class]; !ok || got.Events != want {
			return fmt.Errorf("consequence %s: %d events, want %d", class, got.Events, want)
		}
	}
	if len(rb.TopChains) != len(ref.TopChains) {
		return fmt.Errorf("%d top chains, want %d", len(rb.TopChains), len(ref.TopChains))
	}
	for i, want := range ref.TopChains {
		if rb.TopChains[i] != want {
			return fmt.Errorf("top chain %d: %+v, want %+v", i, rb.TopChains[i], want)
		}
	}
	return nil
}

// checkLive checks a mid-call report fetched after chunk i was
// acknowledged: it must cover the chunk's last record and count exactly
// the records sent so far.
func checkLive(rb reportBody, it *item, i int) error {
	if rb.WatermarkUs < int64(it.chunkLast[i]) {
		return fmt.Errorf("watermark %d µs does not cover chunk %d's last record at %d µs", rb.WatermarkUs, i, it.chunkLast[i])
	}
	if rb.Records != it.chunkRecs[i] {
		return fmt.Errorf("%d records after chunk %d, want %d", rb.Records, i, it.chunkRecs[i])
	}
	return nil
}

// tally counts operations attempted and failed. An operation that is
// refused, errors, times out or answers wrongly is failed; failed_share
// is failed ÷ attempted. The first few failures are kept for the
// output.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

// record books one operation by its outcome.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) counts() (attempted, failed int, errs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, append([]string(nil), t.errs...)
}
