package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.N() != 5 {
		t.Fatal("N")
	}
	if c.Max() != 5 {
		t.Fatal("max")
	}
	if c.Median() != 3 {
		t.Fatalf("median = %v", c.Median())
	}
	if got := c.At(2.5); got != 0.4 {
		t.Fatalf("At(2.5) = %v", got)
	}
	if got := c.At(5); got != 1 {
		t.Fatalf("At(max) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(below) = %v", got)
	}
}

func TestCDFQuantileInterpolates(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	if got := c.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
	if c.Quantile(0) != 0 || c.Quantile(1) != 10 {
		t.Fatal("extremes")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Median()) || !math.IsNaN(c.Max()) {
		t.Fatal("empty CDF should be NaN")
	}
	if c.At(1) != 0 {
		t.Fatal("empty At")
	}
}

func TestSeries(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	s := c.Series([]float64{0, 2, 5})
	if s[0][1] != 0 || s[1][1] != 0.5 || s[2][1] != 1 {
		t.Fatalf("series = %v", s)
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(xs[i]-want[i])/want[i] > 1e-9 {
			t.Fatalf("LogSpace = %v", xs)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("cell", "median", "p99")
	tb.AddRow("amarisoft", 12.5, 300.1)
	tb.AddRow("mosolabs", 9.0, 80.0)
	s := tb.String()
	if !strings.Contains(s, "amarisoft") || !strings.Contains(s, "median") {
		t.Fatalf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines", len(lines))
	}
}

// Property: quantiles are monotone in p and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			q := c.Quantile(p)
			if q < prev-1e-9 || q < slices.Min(xs)-1e-9 || q > c.Max()+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
