package netem

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/sim"
)

func TestPathBaseDelay(t *testing.T) {
	e := sim.NewEngine()
	var got []*Packet
	p := NewPath(e, sim.NewRNG(1), PathConfig{BaseDelay: 10 * sim.Millisecond}, func(pk *Packet) {
		got = append(got, pk)
	})
	e.Schedule(0, func() { p.Send(&Packet{Seq: 1, Size: 1200, SentAt: 0}) })
	e.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets", len(got))
	}
	if got[0].ArrivedAt-got[0].SentAt != 10*sim.Millisecond {
		t.Fatalf("delay = %v, want 10ms", got[0].ArrivedAt-got[0].SentAt)
	}
}

func TestPathFIFO(t *testing.T) {
	e := sim.NewEngine()
	var seqs []uint64
	cfg := PathConfig{BaseDelay: 5 * sim.Millisecond, JitterStd: 3 * sim.Millisecond}
	p := NewPath(e, sim.NewRNG(2), cfg, func(pk *Packet) { seqs = append(seqs, pk.Seq) })
	for i := 0; i < 500; i++ {
		i := i
		e.Schedule(sim.Time(i)*100*sim.Microsecond, func() {
			p.Send(&Packet{Seq: uint64(i), Size: 1200, SentAt: e.Now()})
		})
	}
	e.Run()
	if len(seqs) != 500 {
		t.Fatalf("delivered %d, want 500", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("reordering: %d before %d", seqs[i-1], seqs[i])
		}
	}
}

func TestPathLoss(t *testing.T) {
	e := sim.NewEngine()
	delivered := 0
	p := NewPath(e, sim.NewRNG(3), PathConfig{BaseDelay: sim.Millisecond, LossRate: 0.2}, func(*Packet) { delivered++ })
	const n = 20000
	for i := 0; i < n; i++ {
		e.Schedule(sim.Time(i)*10*sim.Microsecond, func() {
			p.Send(&Packet{Size: 1200, SentAt: e.Now()})
		})
	}
	e.Run()
	rate := 1 - float64(delivered)/n
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("loss rate = %v, want ~0.2", rate)
	}
	if p.Dropped+uint64(delivered) != p.Sent {
		t.Fatal("loss accounting inconsistent")
	}
}

func TestPathScriptedDelayWindow(t *testing.T) {
	e := sim.NewEngine()
	var delays []sim.Time
	p := NewPath(e, sim.NewRNG(4), PathConfig{BaseDelay: 5 * sim.Millisecond}, func(pk *Packet) {
		delays = append(delays, pk.ArrivedAt-pk.SentAt)
	})
	p.ScriptExtraDelay(sim.Second, 2*sim.Second, 100*sim.Millisecond)
	for _, at := range []sim.Time{500 * sim.Millisecond, 1500 * sim.Millisecond, 2500 * sim.Millisecond} {
		at := at
		e.Schedule(at, func() { p.Send(&Packet{Size: 100, SentAt: e.Now()}) })
	}
	e.Run()
	if delays[0] != 5*sim.Millisecond {
		t.Fatalf("pre-window delay %v", delays[0])
	}
	if delays[1] != 105*sim.Millisecond {
		t.Fatalf("in-window delay %v, want 105ms", delays[1])
	}
	if delays[2] != 5*sim.Millisecond {
		t.Fatalf("post-window delay %v", delays[2])
	}
}

func TestPathRateCapSerializes(t *testing.T) {
	e := sim.NewEngine()
	var arrivals []sim.Time
	// 1 Mbps: a 1250-byte packet takes 10 ms to serialize.
	p := NewPath(e, sim.NewRNG(5), PathConfig{RateBps: 1e6}, func(pk *Packet) {
		arrivals = append(arrivals, pk.ArrivedAt)
	})
	e.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			p.Send(&Packet{Size: 1250, SentAt: 0})
		}
	})
	e.Run()
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	for i, at := range arrivals {
		if at != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, at, want[i])
		}
	}
}

// TestChainComposition: segments joined the way a session joins its
// legs, each delivering into the next one's Send, add their delays.
func TestChainComposition(t *testing.T) {
	e := sim.NewEngine()
	var out []*Packet
	last := NewPath(e, sim.NewRNG(7), PathConfig{BaseDelay: 4 * sim.Millisecond}, func(pk *Packet) { out = append(out, pk) })
	first := NewPath(e, sim.NewRNG(6), PathConfig{BaseDelay: 3 * sim.Millisecond}, last.Send)
	e.Schedule(0, func() { first.Send(&Packet{Size: 100, SentAt: 0}) })
	e.Run()
	if len(out) != 1 {
		t.Fatalf("delivered %d", len(out))
	}
	if d := out[0].ArrivedAt - out[0].SentAt; d != 7*sim.Millisecond {
		t.Fatalf("chained delay = %v, want 7ms", d)
	}
}

func TestKindAndDirectionStrings(t *testing.T) {
	if KindVideo.String() != "video" || KindAudio.String() != "audio" ||
		KindRTCP.String() != "rtcp" || KindCross.String() != "cross" {
		t.Fatal("MediaKind strings")
	}
	if Uplink.String() != "UL" || Downlink.String() != "DL" {
		t.Fatal("Direction strings")
	}
}

// Property: one-way delay through a jittery path is never below half
// the base delay (the truncation bound) and FIFO order always holds.
func TestPathDelayProperty(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		e := sim.NewEngine()
		n := int(count)%50 + 1
		base := 6 * sim.Millisecond
		var last sim.Time
		ok := true
		p := NewPath(e, sim.NewRNG(seed), PathConfig{BaseDelay: base, JitterStd: 2 * sim.Millisecond}, func(pk *Packet) {
			if pk.ArrivedAt-pk.SentAt < base/2 {
				ok = false
			}
			if pk.ArrivedAt < last {
				ok = false
			}
			last = pk.ArrivedAt
		})
		for i := 0; i < n; i++ {
			e.Schedule(sim.Time(i)*sim.Millisecond, func() {
				p.Send(&Packet{Size: 500, SentAt: e.Now()})
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
