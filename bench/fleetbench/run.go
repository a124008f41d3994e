package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// senders is the load generator's concurrency: one goroutine and one
// connection per CPU, never more, all inside this one process.
func senders() int { return runtime.NumCPU() }

// newClient returns an HTTP client that holds at most one connection
// per host, so n clients mean at most n connections to the entry point.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// outcome is what one workload window produced, before it is turned
// into named metrics.
type outcome struct {
	wall    time.Duration // measured window, first op start to last op end
	cpu     time.Duration // user+sys of every process under test over the window
	cpuBy   map[string]time.Duration
	records int64 // data records in sessions whose report matched the reference
	ops     int64 // verified primary operations
	tally   tally

	// lat is the workload's user-visible latency; series holds every
	// other timing by metric stem. mixP50, when set, is the headline
	// latency of a workload whose operations differ in kind (query-mix).
	lat    samples
	mixP50 float64
	series map[string]*samples
	// extra holds workload-specific figures by metric name.
	extra map[string]float64
	// before/after are the processes' /metrics around the window.
	before, after []scrape

	mu sync.Mutex // guards records and ops while senders run
	// host is the machine over the window (probe.go).
	host hostState
}

// carried books records ingested beside the primary operations
// (query-mix's writer): they count as records, not as operations.
func (o *outcome) carried(records int) {
	o.mu.Lock()
	o.records += int64(records)
	o.mu.Unlock()
}

// completed books one verified operation: the records it carried and,
// when timed, how long the user waited for it.
func (o *outcome) completed(records int, lat time.Duration, timed bool) {
	o.mu.Lock()
	o.records += int64(records)
	o.ops++
	o.mu.Unlock()
	if timed {
		o.lat.add(lat)
	}
}

// p50 is the workload's headline latency: its own summary when it has
// set one, else the median of lat.
func (o *outcome) p50() float64 {
	if o.mixP50 > 0 {
		return o.mixP50
	}
	return o.lat.percentile(50)
}

func newOutcome() *outcome {
	return &outcome{series: map[string]*samples{}, extra: map[string]float64{}, cpuBy: map[string]time.Duration{}, host: hostState{speed: 1, granted: 1}}
}

// sample returns the named series, creating it on first use. Call it
// before goroutines start; they then only add to it.
func (o *outcome) sample(name string) *samples {
	s := o.series[name]
	if s == nil {
		s = &samples{}
		o.series[name] = s
	}
	return s
}

// window brackets a measured window with CPU and /metrics readings of
// every process under test, and meters the machine throughout it.
type window struct {
	f     *fleet
	start time.Time
	cpu   map[string]time.Duration
	meter *meter
	o     *outcome
}

func openWindow(f *fleet, o *outcome) (*window, error) {
	w := &window{f: f, cpu: map[string]time.Duration{}, o: o}
	var err error
	if o.before, err = scrapeAll(f); err != nil {
		return nil, err
	}
	for _, p := range f.procs() {
		if w.cpu[p.name], err = p.cpuTime(); err != nil {
			return nil, err
		}
	}
	if w.meter, err = startMeter(); err != nil {
		return nil, err
	}
	w.start = time.Now()
	return w, nil
}

func (w *window) close() error {
	w.o.wall = time.Since(w.start)
	var err error
	if w.o.host, err = w.meter.finish(); err != nil {
		return err
	}
	for _, p := range w.f.procs() {
		now, err := p.cpuTime()
		if err != nil {
			return err
		}
		d := now - w.cpu[p.name]
		w.o.cpuBy[p.name] = d
		w.o.cpu += d
	}
	w.o.after, err = scrapeAll(w.f)
	return err
}

// get fetches a URL and returns the body of a 200.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}
