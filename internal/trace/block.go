package trace

import (
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// Series indices: the value of a Block tag, and — because the binary
// writer interns the series names first — the dictionary ID of the
// series name on the wire.
const (
	SeriesDCI = iota
	SeriesGNB
	SeriesPkt
	SeriesStats
	SeriesRRC
	NumSeries
)

// Bits of the per-record flag columns, as packed on the wire.
const (
	DCIFlagHARQRetx  = 1 << iota // this TB is a HARQ retransmission
	DCIFlagRLCRetx               // this TB carries RLC-retransmitted segments
	DCIFlagProactive             // granted without a BSR
	DCIFlagUnused                // grant went (partly) unfilled

	StatsFlagLocal  = 1 // sample from the cellular client
	StatsFlagFrozen = 2 // video frozen at sample time

	RRCFlagConnected = 1
)

// Block is one decoded wire block in the columnar form the DMNTRCB1
// wire already has: Tags names the series of every record in merged
// stream order, and each series' fields sit in parallel columns in
// that series' own order (the stats series, which the analyzer's index
// keeps as whole records, in rows), so record i of the block is row k
// of series Tags[i], where k counts the earlier tags of the same
// series. It is lossless — Records can be materialised from it
// (ReadBatch and Next do) — and it is the unit
// stream.Analyzer.PushBlock consumes, so the binary ingest path never
// builds a Record.
//
// The stream's header arrives as a Block with Header set and no rows.
type Block struct {
	Header  *Header
	Tags    []uint8
	DCI     DCIColumns
	GNB     GNBColumns
	Pkt     PacketColumns
	Stats   []WebRTCStatsRecord
	StatsAt []sim.Time // Stats[i].At, as a column
	RRC     RRCColumns
}

// Len is the number of records the block stands for; the header block
// is one record.
func (b *Block) Len() int {
	if b.Header != nil {
		return 1
	}
	return len(b.Tags)
}

// Times returns each series' primary-timestamp column (send time for
// packets), indexed by series.
func (b *Block) Times() [NumSeries][]sim.Time {
	return [NumSeries][]sim.Time{b.DCI.At, b.GNB.At, b.Pkt.SentAt, b.StatsAt, b.RRC.At}
}

// DCIColumns holds a block's DCIRecord fields column by column.
type DCIColumns struct {
	At       []sim.Time
	Dir      []netem.Direction
	RNTI     []uint32
	OwnPRB   []int
	OtherPRB []int
	MCS      []int
	TBSBits  []int
	UsedBits []int
	Flags    []uint8 // DCIFlag* bits
}

// Record materialises row i.
func (c *DCIColumns) Record(i int) DCIRecord {
	f := c.Flags[i]
	return DCIRecord{
		At: c.At[i], Dir: c.Dir[i], RNTI: c.RNTI[i],
		OwnPRB: c.OwnPRB[i], OtherPRB: c.OtherPRB[i], MCS: c.MCS[i],
		TBSBits: c.TBSBits[i], UsedBits: c.UsedBits[i],
		HARQRetx: f&DCIFlagHARQRetx != 0, RLCRetx: f&DCIFlagRLCRetx != 0,
		Proactive: f&DCIFlagProactive != 0, Unused: f&DCIFlagUnused != 0,
	}
}

// GNBColumns holds a block's GNBLogRecord fields column by column.
type GNBColumns struct {
	At          []sim.Time
	Kind        []GNBLogKind
	Dir         []netem.Direction
	BufferBytes []int
	RNTI        []uint32
	Note        []string
}

// Record materialises row i.
func (c *GNBColumns) Record(i int) GNBLogRecord {
	return GNBLogRecord{
		At: c.At[i], Kind: c.Kind[i], Dir: c.Dir[i],
		BufferBytes: c.BufferBytes[i], RNTI: c.RNTI[i], Note: c.Note[i],
	}
}

// PacketColumns holds a block's PacketRecord fields column by column.
type PacketColumns struct {
	SentAt  []sim.Time
	Arrived []sim.Time
	Seq     []uint64
	Kind    []netem.MediaKind
	Dir     []netem.Direction
	Size    []int
}

// Record materialises row i.
func (c *PacketColumns) Record(i int) PacketRecord {
	return PacketRecord{
		Seq: c.Seq[i], Kind: c.Kind[i], Dir: c.Dir[i], Size: c.Size[i],
		SentAt: c.SentAt[i], Arrived: c.Arrived[i],
	}
}

// RRCColumns holds a block's RRCRecord fields column by column.
type RRCColumns struct {
	At    []sim.Time
	Flags []uint8 // RRCFlag* bits
	RNTI  []uint32
	Cause []string
}

// Record materialises row i.
func (c *RRCColumns) Record(i int) RRCRecord {
	return RRCRecord{At: c.At[i], Connected: c.Flags[i]&RRCFlagConnected != 0, RNTI: c.RNTI[i], Cause: c.Cause[i]}
}
