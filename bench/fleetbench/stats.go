package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects one timing series. Percentiles are exact
// (nearest-rank over every recorded value, nothing bucketed), and every
// report of one carries the sample count beside it.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) { s.addValue(float64(d) / float64(time.Millisecond)) }

func (s *samples) addValue(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100):
// the smallest recorded value with at least p % of the samples at or
// below it. An empty series reports 0.
func (s *samples) percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return percentileOf(s.v, p)
}

func percentileOf(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func medianOf(v []float64) float64 { return percentileOf(v, 50) }
