package zoomqss

import (
	"testing"

	"github.com/domino5g/domino/internal/stats"
)

func genSmall(t *testing.T) []Record {
	t.Helper()
	return Generate(Config{WiredMinutes: 5000, WiFiMinutes: 5000, CellularMinutes: 5000}, 7)
}

func TestGenerateCounts(t *testing.T) {
	recs := genSmall(t)
	if len(recs) != 15000 {
		t.Fatalf("records = %d", len(recs))
	}
	if n := len(Filter(recs, Cellular)); n != 5000 {
		t.Fatalf("cellular = %d", n)
	}
}

func TestJitterOrdering(t *testing.T) {
	// The paper's Fig. 5 ordering: cellular > Wi-Fi > wired at the
	// median and at the tail.
	recs := genSmall(t)
	med := func(a AccessType) float64 {
		return stats.NewCDF(Column(Filter(recs, a), func(r Record) float64 { return r.OutboundJitterMs })).Median()
	}
	p95 := func(a AccessType) float64 {
		return stats.NewCDF(Column(Filter(recs, a), func(r Record) float64 { return r.OutboundJitterMs })).Quantile(0.95)
	}
	if !(med(Cellular) > med(WiFi) && med(WiFi) > med(Wired)) {
		t.Fatalf("median ordering violated: cell=%v wifi=%v wired=%v", med(Cellular), med(WiFi), med(Wired))
	}
	if !(p95(Cellular) > p95(WiFi) && p95(WiFi) > p95(Wired)) {
		t.Fatalf("tail ordering violated: cell=%v wifi=%v wired=%v", p95(Cellular), p95(WiFi), p95(Wired))
	}
}

func TestLossOrdering(t *testing.T) {
	// Fig. 6: cellular loss dominates.
	recs := genSmall(t)
	mean := func(a AccessType) float64 {
		var sum float64
		col := Column(Filter(recs, a), func(r Record) float64 { return r.OutboundLossPct })
		for _, v := range col {
			sum += v
		}
		return sum / float64(len(col))
	}
	if !(mean(Cellular) > mean(WiFi) && mean(WiFi) > mean(Wired)) {
		t.Fatalf("loss ordering violated: cell=%v wifi=%v wired=%v", mean(Cellular), mean(WiFi), mean(Wired))
	}
}

func TestValuesInRange(t *testing.T) {
	for _, r := range genSmall(t) {
		if r.OutboundJitterMs < 0 || r.OutboundJitterMs > 500 ||
			r.InboundJitterMs < 0 || r.InboundJitterMs > 600 {
			t.Fatalf("jitter out of range: %+v", r)
		}
		if r.OutboundLossPct < 0 || r.OutboundLossPct > 100 ||
			r.InboundLossPct < 0 || r.InboundLossPct > 100 {
			t.Fatalf("loss out of range: %+v", r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(DefaultConfig(), 3)
	b := Generate(DefaultConfig(), 3)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestAccessTypeString(t *testing.T) {
	if Wired.String() != "wired" || WiFi.String() != "wifi" || Cellular.String() != "cellular" {
		t.Fatal("access type strings")
	}
}
