package core

import (
	"sort"
)

// ConditionalProbabilities computes Table 2: for each consequence
// class, the probability that a given cause was linked to it by a
// matched chain. A consequence event (collapsed run) may be attributed
// to several causes (columns can sum past 100%), or to none — the
// "Unknown" column.
func (r *Report) ConditionalProbabilities(causes, consequences []string) map[string]map[string]float64 {
	// Consequence→chain-ID index, built once per call (the chain table
	// is tiny) so attribution iterates only the consequence's own
	// chains instead of scanning every chain's runs per event. Built
	// locally — Report methods stay read-only and safe to share.
	idx := make(map[string][]int, 4)
	for _, c := range r.chains {
		idx[c.Consequence()] = append(idx[c.Consequence()], c.ID)
	}
	out := make(map[string]map[string]float64, len(consequences))
	// countedAt[cause] records the (1-based) event index the cause was
	// last attributed to, replacing the map the old causesDuring
	// allocated per event run.
	countedAt := make(map[string]int, 8)
	for _, cons := range consequences {
		row := make(map[string]float64, len(causes)+1)
		events := r.NodeEvents[cons]
		if len(events) == 0 {
			for _, c := range causes {
				row[c] = 0
			}
			row["unknown"] = 0
			out[cons] = row
			continue
		}
		counts := make(map[string]int, len(causes))
		unknown := 0
		clear(countedAt)
		for evi, ev := range events {
			attributed := false
			for _, id := range idx[cons] {
				cause := r.chains[id-1].Cause()
				if countedAt[cause] == evi+1 {
					attributed = true
					continue
				}
				for _, cr := range r.ChainEvents[id] {
					if cr.Start < ev.End && cr.End > ev.Start {
						countedAt[cause] = evi + 1
						counts[cause]++
						attributed = true
						break
					}
				}
			}
			if !attributed {
				unknown++
			}
		}
		for _, c := range causes {
			row[c] = float64(counts[c]) / float64(len(events))
		}
		row["unknown"] = float64(unknown) / float64(len(events))
		out[cons] = row
	}
	return out
}

// ChainRatios computes Table 4: each (cause, consequence) pair's share
// of all collapsed chain events.
func (r *Report) ChainRatios(causes, consequences []string) map[string]map[string]float64 {
	total := r.TotalChainEvents()
	out := make(map[string]map[string]float64, len(consequences))
	counts := make(map[string]map[string]int, len(consequences))
	for _, cons := range consequences {
		counts[cons] = make(map[string]int, len(causes))
	}
	for id, runs := range r.ChainEvents {
		chain := r.chains[id-1]
		if m, ok := counts[chain.Consequence()]; ok {
			m[chain.Cause()] += len(runs)
		}
	}
	for _, cons := range consequences {
		row := make(map[string]float64, len(causes))
		for _, c := range causes {
			if total > 0 {
				row[c] = float64(counts[cons][c]) / float64(total)
			}
		}
		out[cons] = row
	}
	return out
}

// TopChains returns the chains with the most collapsed events,
// descending, up to n.
func (r *Report) TopChains(n int) []ChainCount {
	var out []ChainCount
	for id, runs := range r.ChainEvents {
		if len(runs) > 0 {
			out = append(out, ChainCount{Chain: r.chains[id-1], Events: len(runs)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		return out[i].Chain.ID < out[j].Chain.ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ChainCount pairs a chain with its collapsed event count.
type ChainCount struct {
	Chain  Chain
	Events int
}

// MergeReports combines reports from multiple sessions (e.g. all
// commercial-cell runs) into aggregate statistics by concatenating
// event runs and durations. Each session's clock starts at 0, so its
// runs are shifted by the summed durations of the sessions before it:
// on the merged timeline no run overlaps another session's, and
// ConditionalProbabilities attributes a consequence only within its own
// session. Chain sets must be identical.
func MergeReports(reports []*Report) *Report {
	if len(reports) == 0 {
		return &Report{NodeEvents: map[string][]EventRun{}, ChainEvents: map[int][]ChainRun{}}
	}
	merged := &Report{
		CellName:    "merged",
		NodeEvents:  make(map[string][]EventRun),
		ChainEvents: make(map[int][]ChainRun),
		chains:      reports[0].chains,
	}
	for _, r := range reports {
		off := merged.Duration
		for n, runs := range r.NodeEvents {
			for _, e := range runs {
				e.Start, e.End = e.Start+off, e.End+off
				merged.NodeEvents[n] = append(merged.NodeEvents[n], e)
			}
		}
		for id, runs := range r.ChainEvents {
			for _, c := range runs {
				c.Start, c.End = c.Start+off, c.End+off
				merged.ChainEvents[id] = append(merged.ChainEvents[id], c)
			}
		}
		merged.Duration += r.Duration
	}
	return merged
}
