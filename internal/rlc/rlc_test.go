package rlc

import (
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

func pkt(seq uint64, size int) *netem.Packet {
	return &netem.Packet{Seq: seq, Size: size}
}

func TestTxEnqueueAndBuffer(t *testing.T) {
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 1200), 0)
	tx.Enqueue(pkt(2, 300), 0)
	if tx.BufferedBytes() != 1500+2*SegmentHeaderBytes {
		t.Fatalf("buffered = %d, want %d", tx.BufferedBytes(), 1500+2*SegmentHeaderBytes)
	}
}

func TestFillTBWholePackets(t *testing.T) {
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 1000), 0)
	tx.Enqueue(pkt(2, 1000), 0)
	segs, used := tx.FillTBInto(nil, 3000, 0)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	for _, s := range segs {
		if !s.Last || s.Offset != 0 || s.Length != 1000 {
			t.Fatalf("unexpected segment %+v", s)
		}
	}
	if used != 2000+2*SegmentHeaderBytes {
		t.Fatalf("used = %d", used)
	}
	if tx.BufferedBytes() != 0 {
		t.Fatalf("buffer not drained: %d", tx.BufferedBytes())
	}
}

func TestFillTBSegmentsAcrossTBs(t *testing.T) {
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 1200), 0)
	segs1, _ := tx.FillTBInto(nil, 500, 0)
	if len(segs1) != 1 || segs1[0].Last || segs1[0].Length != 500-SegmentHeaderBytes {
		t.Fatalf("first segment %+v", segs1[0])
	}
	segs2, _ := tx.FillTBInto(nil, 10000, 0)
	if len(segs2) != 1 || !segs2[0].Last {
		t.Fatalf("second segment %+v", segs2)
	}
	if segs1[0].Length+segs2[0].Length != 1200 {
		t.Fatal("segments do not cover SDU")
	}
	if segs2[0].Offset != segs1[0].Length {
		t.Fatal("second segment offset wrong")
	}
}

func TestFillTBTooSmall(t *testing.T) {
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 100), 0)
	segs, used := tx.FillTBInto(nil, SegmentHeaderBytes, 0) // no room for any payload
	if len(segs) != 0 || used != 0 {
		t.Fatalf("expected nothing, got %d segs", len(segs))
	}
}

func TestNackAndRetxPriority(t *testing.T) {
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 400), 0)
	segs, _ := tx.FillTBInto(nil, 10000, 0)
	tx.Enqueue(pkt(2, 400), 0)
	tx.Nack(segs, 50*sim.Millisecond)
	if tx.RetxCount != 1 {
		t.Fatalf("RetxCount = %d", tx.RetxCount)
	}
	if tx.BufferedBytes() != 800+2*SegmentHeaderBytes {
		t.Fatalf("buffered = %d, want %d", tx.BufferedBytes(), 800+2*SegmentHeaderBytes)
	}
	// Before eligibility, only new data goes out.
	early, _ := tx.FillTBInto(nil, 405+SegmentHeaderBytes, 10*sim.Millisecond)
	if len(early) != 1 || early[0].RLCRetx {
		t.Fatalf("early fill should carry new data only: %+v", early)
	}
	if tx.HasEligibleRetx(10 * sim.Millisecond) {
		t.Fatal("retx should not be eligible yet")
	}
	// After eligibility the retx goes first.
	if !tx.HasEligibleRetx(60 * sim.Millisecond) {
		t.Fatal("retx should be eligible")
	}
	late, _ := tx.FillTBInto(nil, 10000, 60*sim.Millisecond)
	if len(late) != 1 || !late[0].RLCRetx {
		t.Fatalf("late fill should carry the retx: %+v", late)
	}
	if late[0].SDU.Packet.Seq != 1 {
		t.Fatal("retx carries wrong SDU")
	}
}

func deliverAll(t *testing.T, tx *TxEntity, rx *RxEntity, capacity int, now sim.Time) {
	t.Helper()
	for tx.BufferedBytes() > 0 {
		segs, _ := tx.FillTBInto(nil, capacity, now)
		if len(segs) == 0 {
			t.Fatal("no progress draining buffer")
		}
		rx.Receive(segs, now)
	}
}

func TestRxInOrderDelivery(t *testing.T) {
	var got []uint64
	rx := NewRxEntity(func(d DeliveredPacket) { got = append(got, d.Packet.Seq) })
	tx := NewTxEntity()
	for i := 1; i <= 5; i++ {
		tx.Enqueue(pkt(uint64(i), 600), 0)
	}
	deliverAll(t, tx, rx, 2000, 0)
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestRxHoLBlocking(t *testing.T) {
	var got []DeliveredPacket
	rx := NewRxEntity(func(d DeliveredPacket) { got = append(got, d) })
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 500), 0)
	tx.Enqueue(pkt(2, 500), 0)
	tx.Enqueue(pkt(3, 500), 0)

	first, _ := tx.FillTBInto(nil, 500+SegmentHeaderBytes, 0) // carries SDU 1
	rest, _ := tx.FillTBInto(nil, 10000, 0)                   // carries SDUs 2,3

	// SDU 1's TB fails HARQ: receiver gets 2,3 first — nothing may be
	// delivered (head-of-line blocking).
	rx.Receive(rest, 10*sim.Millisecond)
	if len(got) != 0 {
		t.Fatalf("HoL violated: delivered %d early", len(got))
	}
	pending := 0
	for _, st := range rx.win {
		if st.active {
			pending++
		}
	}
	if pending != 2 {
		t.Fatalf("pending = %d, want 2", pending)
	}

	// RLC retx of SDU 1 arrives much later: everything releases at once.
	tx.Nack(first, 100*sim.Millisecond)
	retx, _ := tx.FillTBInto(nil, 10000, 105*sim.Millisecond)
	rx.Receive(retx, 105*sim.Millisecond)
	if len(got) != 3 {
		t.Fatalf("delivered %d after retx, want 3", len(got))
	}
	for i, d := range got {
		if d.Packet.Seq != uint64(i+1) {
			t.Fatalf("order wrong: %v", got)
		}
		if d.At != 105*sim.Millisecond {
			t.Fatal("burst release should share one timestamp")
		}
	}
	if !got[1].HoLReleased || !got[2].HoLReleased {
		t.Fatal("blocked packets not marked HoLReleased")
	}
	if got[0].HoLReleased {
		t.Fatal("head packet should not be marked HoLReleased")
	}
	if rx.HoLBlockedMax < 3 {
		t.Fatalf("HoLBlockedMax = %d", rx.HoLBlockedMax)
	}
}

func TestRxDuplicateSegments(t *testing.T) {
	var got []uint64
	rx := NewRxEntity(func(d DeliveredPacket) { got = append(got, d.Packet.Seq) })
	tx := NewTxEntity()
	tx.Enqueue(pkt(1, 500), 0)
	segs, _ := tx.FillTBInto(nil, 10000, 0)
	rx.Receive(segs, 0)
	rx.Receive(segs, sim.Millisecond) // duplicate delivery (HARQ+RLC race)
	if len(got) != 1 {
		t.Fatalf("duplicate produced %d deliveries", len(got))
	}
}

// Property: any enqueue pattern drained through any TB capacity
// sequence delivers every packet exactly once, in order.
func TestRLCDeliveryProperty(t *testing.T) {
	f := func(sizes []uint16, caps []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		tx := NewTxEntity()
		var got []uint64
		rx := NewRxEntity(func(d DeliveredPacket) { got = append(got, d.Packet.Seq) })
		want := 0
		for i, s := range sizes {
			size := int(s)%1400 + 1
			tx.Enqueue(pkt(uint64(i), size), 0)
			want++
		}
		ci := 0
		for guard := 0; tx.BufferedBytes() > 0 && guard < 100000; guard++ {
			capacity := 40
			if len(caps) > 0 {
				capacity = int(caps[ci%len(caps)])%3000 + 20
				ci++
			}
			segs, _ := tx.FillTBInto(nil, capacity, 0)
			rx.Receive(segs, 0)
		}
		if tx.BufferedBytes() != 0 || len(got) != want {
			return false
		}
		for i, seq := range got {
			if seq != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: bytes are conserved — sum of segment lengths for an SDU
// equals its size, regardless of capacity slicing.
func TestRLCSegmentationConservation(t *testing.T) {
	f := func(size uint16, capRaw uint8) bool {
		sz := int(size)%2000 + 1
		capacity := int(capRaw)%500 + SegmentHeaderBytes + 1
		tx := NewTxEntity()
		tx.Enqueue(pkt(7, sz), 0)
		total := 0
		for guard := 0; tx.BufferedBytes() > 0 && guard < 10000; guard++ {
			segs, used := tx.FillTBInto(nil, capacity, 0)
			sum := 0
			for _, s := range segs {
				total += s.Length
				sum += s.Length + SegmentHeaderBytes
			}
			if sum != used {
				return false
			}
		}
		return total == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
