package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// Parent and child streams must differ.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(2)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) value %d drawn %d times out of 70000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance = %v, want ~4", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exponential(3)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~3", mean)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto draw %v below xm", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(9)
	base := 100 * Millisecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.2)
		if j < 80*Millisecond || j > 120*Millisecond {
			t.Fatalf("Jitter out of bounds: %v", j)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(10)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}

// Property: any seed yields Float64 values in [0,1) and LogNormal > 0.
func TestRNGRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
			if r.LogNormal(0, 1) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
