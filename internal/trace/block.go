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
// stream.Analyzer.PushBlock consumes, so the ingest path never builds a
// Record.
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

	// The Records a Reader's Next and ReadBatch hand out, and the rows
	// they point at (with Stats): a ring generation holds them, so
	// Recycle or RecycleInto bounds their lifetime as it does a ReadBlock
	// block's.
	recs []Record
	dcis []DCIRecord
	gnbs []GNBLogRecord
	pkts []PacketRecord
	rrcs []RRCRecord
}

// Len is the number of records the block stands for; the header block
// is one record.
func (b *Block) Len() int {
	if b.Header != nil {
		return 1
	}
	return len(b.Tags)
}

// add appends rec's data row as the block's next record and returns its
// series, or -1 for a record with none.
func (b *Block) add(rec Record) int {
	kind := -1
	switch {
	case rec.DCI != nil:
		kind = SeriesDCI
		b.DCI.append(rec.DCI)
	case rec.GNB != nil:
		kind = SeriesGNB
		b.GNB.append(rec.GNB)
	case rec.Packet != nil:
		kind = SeriesPkt
		b.Pkt.append(rec.Packet)
	case rec.Stats != nil:
		kind = SeriesStats
		b.Stats, b.StatsAt = append(b.Stats, *rec.Stats), append(b.StatsAt, rec.Stats.At)
	case rec.RRC != nil:
		kind = SeriesRRC
		b.RRC.append(rec.RRC)
	default:
		return kind
	}
	b.Tags = append(b.Tags, uint8(kind))
	return kind
}

// reset empties the block, keeping every column's backing array.
func (b *Block) reset() {
	b.Header, b.Tags, b.Stats, b.StatsAt = nil, b.Tags[:0], b.Stats[:0], b.StatsAt[:0]
	d, g, p, r := &b.DCI, &b.GNB, &b.Pkt, &b.RRC
	d.At, d.Dir, d.RNTI, d.OwnPRB, d.OtherPRB = d.At[:0], d.Dir[:0], d.RNTI[:0], d.OwnPRB[:0], d.OtherPRB[:0]
	d.MCS, d.TBSBits, d.UsedBits, d.Flags = d.MCS[:0], d.TBSBits[:0], d.UsedBits[:0], d.Flags[:0]
	g.At, g.Kind, g.Dir, g.BufferBytes, g.RNTI, g.Note = g.At[:0], g.Kind[:0], g.Dir[:0], g.BufferBytes[:0], g.RNTI[:0], g.Note[:0]
	p.SentAt, p.Arrived, p.Seq, p.Kind, p.Dir, p.Size = p.SentAt[:0], p.Arrived[:0], p.Seq[:0], p.Kind[:0], p.Dir[:0], p.Size[:0]
	r.At, r.Flags, r.RNTI, r.Cause = r.At[:0], r.Flags[:0], r.RNTI[:0], r.Cause[:0]
}

// BlockRing is block storage a Reader decodes into round-robin (see
// Reader.Recycle). It outlives the reader, so a consumer of many short
// streams keeps one per stream in flight instead of growing thirty
// columns anew for each.
type BlockRing struct {
	blks []Block
	pos  int
	scan []byte // a JSONL reader's line buffer, made at first use
}

// NewBlockRing returns a ring of depth+1 generations; for depth <= 0,
// the nil ring, which allocates a block per call.
func NewBlockRing(depth int) *BlockRing {
	if depth <= 0 {
		return nil
	}
	return &BlockRing{blks: make([]Block, depth+1)}
}

// next returns the generation the next block decodes into, emptied.
func (r *BlockRing) next() *Block {
	if r == nil {
		return &Block{}
	}
	b := &r.blks[r.pos]
	r.pos = (r.pos + 1) % len(r.blks)
	b.reset()
	return b
}

// scanBuffer returns the buffer a JSONL reader's scanner starts on: the
// ring's own, kept from reader to reader, or for the nil ring a new one.
func (r *BlockRing) scanBuffer() []byte {
	if r == nil {
		return make([]byte, jsonlScanBuffer)
	}
	if r.scan == nil {
		r.scan = make([]byte, jsonlScanBuffer)
	}
	return r.scan
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

// flag returns bit when set, else 0.
func flag(set bool, bit uint8) uint8 {
	if set {
		return bit
	}
	return 0
}

// append adds r as the last row. Every series appends a column per
// statement: x = append(x, v) writes back only the length while x has room.
func (c *DCIColumns) append(r *DCIRecord) {
	c.At = append(c.At, r.At)
	c.Dir = append(c.Dir, r.Dir)
	c.RNTI = append(c.RNTI, r.RNTI)
	c.OwnPRB = append(c.OwnPRB, r.OwnPRB)
	c.OtherPRB = append(c.OtherPRB, r.OtherPRB)
	c.MCS = append(c.MCS, r.MCS)
	c.TBSBits = append(c.TBSBits, r.TBSBits)
	c.UsedBits = append(c.UsedBits, r.UsedBits)
	c.Flags = append(c.Flags, flag(r.HARQRetx, DCIFlagHARQRetx)|flag(r.RLCRetx, DCIFlagRLCRetx)|
		flag(r.Proactive, DCIFlagProactive)|flag(r.Unused, DCIFlagUnused))
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

func (c *GNBColumns) append(r *GNBLogRecord) {
	c.At = append(c.At, r.At)
	c.Kind = append(c.Kind, r.Kind)
	c.Dir = append(c.Dir, r.Dir)
	c.BufferBytes = append(c.BufferBytes, r.BufferBytes)
	c.RNTI = append(c.RNTI, r.RNTI)
	c.Note = append(c.Note, r.Note)
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

func (c *PacketColumns) append(r *PacketRecord) {
	c.SentAt = append(c.SentAt, r.SentAt)
	c.Arrived = append(c.Arrived, r.Arrived)
	c.Seq = append(c.Seq, r.Seq)
	c.Kind = append(c.Kind, r.Kind)
	c.Dir = append(c.Dir, r.Dir)
	c.Size = append(c.Size, r.Size)
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

func (c *RRCColumns) append(r *RRCRecord) {
	c.At = append(c.At, r.At)
	c.Flags = append(c.Flags, flag(r.Connected, RRCFlagConnected))
	c.RNTI = append(c.RNTI, r.RNTI)
	c.Cause = append(c.Cause, r.Cause)
}

// Record materialises row i.
func (c *RRCColumns) Record(i int) RRCRecord {
	return RRCRecord{At: c.At[i], Connected: c.Flags[i]&RRCFlagConnected != 0, RNTI: c.RNTI[i], Cause: c.Cause[i]}
}
