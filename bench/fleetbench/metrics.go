package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/domino5g/domino/internal/obs"
)

// scrape is one process's /metrics at one instant: the raw exposition
// and its parsed snapshot.
type scrape struct {
	proc string
	text []byte
	snap obs.Snapshot
}

// scrapeAll reads /metrics from every process of the fleet.
func scrapeAll(f *fleet) ([]scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := newClient()
	defer c.CloseIdleConnections()
	var out []scrape
	for _, p := range f.nodes {
		text, err := get(ctx, c, p.url+"/metrics")
		if err != nil {
			return nil, err
		}
		snap, err := obs.ParseText(bytes.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("parsing %s /metrics: %w", p.name, err)
		}
		out = append(out, scrape{proc: p.name, text: text, snap: snap})
	}
	return out, nil
}

// find returns the sample of family name whose labels include every
// key=value pair given (pairs alternate key, value).
func find(snap obs.Snapshot, name string, pairs ...string) (obs.Sample, bool) {
	for _, fam := range snap.Families {
		if fam.Name != name {
			continue
		}
	next:
		for _, s := range fam.Samples {
			for i := 0; i+1 < len(pairs); i += 2 {
				ok := false
				for _, l := range s.Labels {
					if l.Key == pairs[i] && l.Value == pairs[i+1] {
						ok = true
					}
				}
				if !ok {
					continue next
				}
			}
			return s, true
		}
	}
	return obs.Sample{}, false
}

// sumOver adds up, over every node process, the growth of one sample
// between two scrape rounds. pick selects the figure: a counter or
// gauge value, or a histogram's sum or count.
func sumOver(before, after []scrape, pick func(obs.Sample) float64, name string, pairs ...string) float64 {
	total := 0.0
	for i := range after {
		a, _ := find(after[i].snap, name, pairs...)
		var b obs.Sample
		if i < len(before) {
			b, _ = find(before[i].snap, name, pairs...)
		}
		total += pick(a) - pick(b)
	}
	return total
}

func sampleValue(s obs.Sample) float64 { return s.Value }
func sampleSum(s obs.Sample) float64   { return s.Sum }
func sampleCount(s obs.Sample) float64 { return float64(s.Count) }
