// Package ran composes the PHY, MAC, RLC, and RRC models into a
// simulated 5G cell that the media stack attaches to as a pair of
// netem.Links (uplink and downlink). The cell runs a slot-level loop,
// emits NR-Scope-style DCI telemetry and gNB logs, and reproduces the
// delay mechanisms the paper diagnoses: RLC buffer build-up under
// channel degradation or cross traffic, UL scheduling delay and delay
// spread, HARQ and RLC retransmission latency with head-of-line
// blocking, and RRC-transition outages.
package ran

import (
	"fmt"

	"github.com/domino5g/domino/internal/mac"
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/phy"
	"github.com/domino5g/domino/internal/rlc"
	"github.com/domino5g/domino/internal/rrc"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// LinkAdaptConfig shapes the MCS selection policy per direction.
type LinkAdaptConfig struct {
	// Backoff lowers (positive) or raises (negative) the CQI-mapped
	// MCS. The paper attributes the Amarisoft UL bitrate gap partly to
	// a conservative UL MCS selection strategy.
	Backoff int
	// ReportInterval is the CQI reporting period.
	ReportInterval sim.Time
}

// CellConfig fully describes one simulated cell.
type CellConfig struct {
	Name         string
	Numerology   phy.Numerology
	BandwidthMHz int
	Frame        mac.FramePattern

	ULGrants mac.GrantConfig
	HARQ     mac.HARQConfig
	// RLCStatusDelay is the gap between HARQ exhaustion and the RLC
	// retransmission becoming eligible (status-report round trip).
	// Combined with MaxAttempts×RTT it produces the ~105 ms RLC retx
	// penalty of Fig. 18.
	RLCStatusDelay sim.Time

	ULChannel, DLChannel     phy.ChannelConfig
	ULLinkAdapt, DLLinkAdapt LinkAdaptConfig
	ULCross, DLCross         mac.CrossTrafficConfig
	RRC                      rrc.Config

	// MaxUEShare caps the fraction of the carrier's PRBs the
	// experiment UE may take in one slot (scheduler fairness).
	MaxUEShare float64
	// HasGNBLog mirrors data availability: private cells expose
	// RLC-layer logs, commercial cells do not.
	HasGNBLog bool
}

// Observer receives the cell's telemetry stream. trace.Collector
// implements it; tests use lighter-weight observers.
type Observer interface {
	OnDCI(trace.DCIRecord)
	OnGNBLog(trace.GNBLogRecord)
	OnRRC(trace.RRCRecord)
}

// direction holds the per-direction machinery.
type direction struct {
	dir     netem.Direction
	channel *phy.Channel
	adapter *phy.LinkAdapter
	cross   *mac.CrossTraffic
	harq    *mac.HARQEntity
	tx      *rlc.TxEntity
	rx      *rlc.RxEntity
	sink    netem.Sink

	// pendingRetx holds HARQ retransmissions awaiting a usable slot.
	pendingRetx []*mac.TB
	// tbPool recycles concluded transport blocks (and their segment
	// slices), so the slot loop builds TBs without allocating.
	tbPool []*mac.TB
	// grantCredit is UL-only: granted bytes not yet consumed.
	grantCredit int
	// proactiveCredit tracks the proactive share of grantCredit for
	// waste accounting.
	proactiveCredit int

	lastSNR float64

	// Stats.
	tbsSent      uint64
	wastedBytes  uint64
	grantedBytes uint64
}

// Cell is a simulated 5G cell serving one experiment UE (plus modeled
// cross traffic). Attach media flows via ULLink and DLLink.
type Cell struct {
	cfg      CellConfig
	engine   *sim.Engine
	rng      *sim.RNG
	clock    mac.SlotClock
	totalPRB int

	ul, dl  *direction
	ulSched *mac.ULScheduler
	rrcm    *rrc.Machine
	obs     Observer

	nextTBID uint64
	ticker   *sim.Ticker
}

type nopObserver struct{}

func (nopObserver) OnDCI(trace.DCIRecord)       {}
func (nopObserver) OnGNBLog(trace.GNBLogRecord) {}
func (nopObserver) OnRRC(trace.RRCRecord)       {}

// NewCell constructs a cell and starts its slot loop on the engine.
// ulSink receives packets leaving the cell toward the core network;
// dlSink receives packets delivered to the UE.
func NewCell(engine *sim.Engine, rng *sim.RNG, cfg CellConfig, ulSink, dlSink netem.Sink, obs Observer) (*Cell, error) {
	totalPRB, err := cfg.Numerology.PRBsForBandwidth(cfg.BandwidthMHz)
	if err != nil {
		return nil, fmt.Errorf("ran: cell %q: %w", cfg.Name, err)
	}
	if cfg.MaxUEShare <= 0 || cfg.MaxUEShare > 1 {
		return nil, fmt.Errorf("ran: cell %q: MaxUEShare %v out of (0,1]", cfg.Name, cfg.MaxUEShare)
	}
	if obs == nil {
		obs = nopObserver{}
	}
	c := &Cell{
		cfg:      cfg,
		engine:   engine,
		rng:      rng.Fork(),
		clock:    mac.SlotClock{SlotDuration: cfg.Numerology.SlotDuration()},
		totalPRB: totalPRB,
		ulSched:  mac.NewULScheduler(cfg.ULGrants),
		obs:      obs,
	}
	c.rrcm = rrc.NewMachine(cfg.RRC, c.rng)
	c.ul = c.newDirection(netem.Uplink, cfg.ULChannel, cfg.ULLinkAdapt, cfg.ULCross, ulSink)
	c.dl = c.newDirection(netem.Downlink, cfg.DLChannel, cfg.DLLinkAdapt, cfg.DLCross, dlSink)

	c.ticker = engine.NewTicker(0, c.clock.SlotDuration, c.onSlot)
	return c, nil
}

func (c *Cell) newDirection(dir netem.Direction, ch phy.ChannelConfig, la LinkAdaptConfig, ct mac.CrossTrafficConfig, sink netem.Sink) *direction {
	d := &direction{
		dir:     dir,
		channel: phy.NewChannel(ch, c.rng),
		adapter: phy.NewLinkAdapter(la.Backoff, la.ReportInterval),
		cross:   mac.NewCrossTraffic(ct, c.totalPRB, c.rng),
		tx:      rlc.NewTxEntity(),
		sink:    sink,
	}
	d.rx = rlc.NewRxEntity(func(dp rlc.DeliveredPacket) {
		dp.Packet.ArrivedAt = dp.At
		if d.sink != nil {
			d.sink(dp.Packet)
		}
	})
	d.harq = mac.NewHARQEntity(c.cfg.HARQ, c.engine, c.rng,
		func(tb *mac.TB, at sim.Time) {
			d.rx.Receive(tb.Segments, at)
			d.recycleTB(tb)
		},
		func(tb *mac.TB, at sim.Time) {
			// Nack copies the segments into the retx queue, so the TB
			// is concluded here too.
			d.tx.Nack(tb.Segments, at+c.cfg.RLCStatusDelay)
			c.obs.OnGNBLog(trace.GNBLogRecord{At: at, Kind: trace.GNBLogRLCRetx, Dir: dir, Note: "harq exhausted"})
			d.recycleTB(tb)
		},
		func(tb *mac.TB) { d.pendingRetx = append(d.pendingRetx, tb) },
		nil,
	)
	return d
}

// takeTB pops a recycled transport block (or allocates the first time).
func (d *direction) takeTB() *mac.TB {
	if n := len(d.tbPool); n > 0 {
		tb := d.tbPool[n-1]
		d.tbPool = d.tbPool[:n-1]
		return tb
	}
	return &mac.TB{}
}

// recycleTB returns a concluded TB to the pool, dropping its segment
// references (they point at SDUs the pool must not keep alive) while
// keeping the slice's backing array for the next FillTBInto.
func (d *direction) recycleTB(tb *mac.TB) {
	segs := tb.Segments
	clear(segs)
	*tb = mac.TB{Segments: segs[:0]}
	d.tbPool = append(d.tbPool, tb)
}

// ULLink returns the link carrying traffic from the UE into the network.
func (c *Cell) ULLink() netem.Link { return dirLink{c, c.ul} }

// DLLink returns the link carrying traffic from the network to the UE.
func (c *Cell) DLLink() netem.Link { return dirLink{c, c.dl} }

type dirLink struct {
	cell *Cell
	d    *direction
}

// Send enqueues the packet into the direction's RLC buffer. Nothing is
// dropped: like a real bearer, data waits for radio resources.
func (l dirLink) Send(p *netem.Packet) {
	l.d.tx.Enqueue(p, l.cell.engine.Now())
}

// ULChannel exposes the uplink channel for scenario scripting.
func (c *Cell) ULChannel() *phy.Channel { return c.ul.channel }

// DLCross exposes the downlink cross-traffic generator for scripting.
func (c *Cell) DLCross() *mac.CrossTraffic { return c.dl.cross }

// RRC exposes the RRC machine for scripting.
func (c *Cell) RRC() *rrc.Machine { return c.rrcm }

// ULSched exposes the uplink grant scheduler for scenario scripting
// (grant-policy shifts scheduled as simulation events).
func (c *Cell) ULSched() *mac.ULScheduler { return c.ulSched }

// Channel returns the channel process for one direction.
func (c *Cell) Channel(dir netem.Direction) *phy.Channel {
	if dir == netem.Uplink {
		return c.ul.channel
	}
	return c.dl.channel
}

// Cross returns the cross-traffic generator for one direction.
func (c *Cell) Cross(dir netem.Direction) *mac.CrossTraffic {
	if dir == netem.Uplink {
		return c.ul.cross
	}
	return c.dl.cross
}

// SetMaxUEShare changes the scheduler-fairness cap on the experiment
// UE's PRB share from the next slot onward. Scenario dynamics schedule
// it on the simulation engine to model a fairness-policy change (e.g.
// the cell admitting a high-priority slice that squeezes the UE).
// Values outside (0, 1] are clamped.
func (c *Cell) SetMaxUEShare(share float64) {
	if share <= 0 {
		share = 1.0 / float64(c.totalPRB)
	}
	if share > 1 {
		share = 1
	}
	c.cfg.MaxUEShare = share
}

// Config returns the cell configuration.
func (c *Cell) Config() CellConfig { return c.cfg }

// Stop halts the slot loop.
func (c *Cell) Stop() { c.ticker.Stop() }

// ULBufferBytes returns the UE-side RLC buffer occupancy (the quantity
// BSRs report and Fig. 12 plots).
func (c *Cell) ULBufferBytes() int { return c.ul.tx.BufferedBytes() }

// onSlot is the per-slot main loop.
func (c *Cell) onSlot(now sim.Time) {
	slot := c.clock.SlotAt(now)
	wasConnected := c.rrcm.State() == rrc.Connected
	connected := c.rrcm.Poll(now)
	if connected != wasConnected {
		c.obs.OnRRC(trace.RRCRecord{At: now, Connected: connected, RNTI: c.rrcm.RNTI(),
			Cause: c.lastRRCCause()})
		c.obs.OnGNBLog(trace.GNBLogRecord{At: now, Kind: trace.GNBLogRRC, RNTI: c.rrcm.RNTI()})
	}
	if !connected {
		// PHY silent: nothing scheduled, buffers build up. No DCI
		// records are emitted — exactly the telemetry gap of Fig. 19.
		return
	}

	if c.cfg.Frame.HasDL(slot) {
		c.processDL(now)
	}
	if c.cfg.Frame.HasUL(slot) {
		c.processUL(now)
	}

	// Periodic gNB RLC buffer log (every 16 slots ≈ 8-16 ms).
	if slot%16 == 0 {
		c.obs.OnGNBLog(trace.GNBLogRecord{At: now, Kind: trace.GNBLogRLCBuffer, Dir: netem.Uplink, BufferBytes: c.ul.tx.BufferedBytes()})
		c.obs.OnGNBLog(trace.GNBLogRecord{At: now, Kind: trace.GNBLogRLCBuffer, Dir: netem.Downlink, BufferBytes: c.dl.tx.BufferedBytes()})
	}
}

func (c *Cell) lastRRCCause() string {
	tr := c.rrcm.Transitions()
	if len(tr) == 0 {
		return ""
	}
	return tr[len(tr)-1].Cause
}

// allocRetx transmits pending HARQ retransmissions with priority and
// returns the PRBs consumed.
func (c *Cell) allocRetx(d *direction, now sim.Time, snr float64, budget int) int {
	used := 0
	kept := d.pendingRetx[:0]
	for _, tb := range d.pendingRetx {
		if tb.PRBs <= budget-used {
			used += tb.PRBs
			d.harq.Transmit(tb, snr, c.clock.SlotDuration)
			c.emitDCI(d, now, tb, 0, true)
		} else {
			kept = append(kept, tb)
		}
	}
	d.pendingRetx = kept
	return used
}

// processDL schedules the downlink slot: retx first, then our UE's
// buffered data competing with cross traffic for PRBs.
func (c *Cell) processDL(now sim.Time) {
	d := c.dl
	snr := d.channel.Sample(now)
	d.lastSNR = snr
	mcs := d.adapter.MCSForSlot(now, snr)

	budget := c.totalPRB
	budget -= c.allocRetx(d, now, snr, budget)

	crossDemand := d.cross.DemandPRBs(now, c.clock.SlotDuration)
	maxOwn := int(float64(c.totalPRB) * c.cfg.MaxUEShare)
	ownDemand := 0
	if buffered := d.tx.BufferedBytes(); buffered > 0 || d.tx.HasEligibleRetx(now) {
		ownDemand = phy.PRBsForBytes(mcs, buffered, maxOwn)
	}

	ownPRB, crossPRB := splitPRBs(ownDemand, crossDemand, budget)
	if ownPRB > 0 {
		c.transmit(d, now, mcs, snr, ownPRB, crossPRB, 0, false)
	} else if crossPRB > 0 {
		// Cross-traffic-only slot still produces a DCI record: NR-Scope
		// decodes every UE's allocations.
		c.obs.OnDCI(trace.DCIRecord{At: now, Dir: d.dir, RNTI: c.rrcm.RNTI(), OtherPRB: crossPRB, MCS: int(mcs)})
	}
}

// processUL runs the request–grant machinery then transmits against
// accumulated grant credit.
func (c *Cell) processUL(now sim.Time) {
	d := c.ul
	snr := d.channel.Sample(now)
	d.lastSNR = snr
	mcs := d.adapter.MCSForSlot(now, snr)

	budget := c.totalPRB
	budget -= c.allocRetx(d, now, snr, budget)

	// The BSR reports buffered bytes not yet covered by unconsumed
	// grant credit, so PRB-capped slots do not trigger duplicate BSRs.
	report := d.tx.BufferedBytes() - d.grantCredit
	if report < 0 {
		report = 0
	}
	usable, proactive := c.ulSched.OnULSlot(now, report)
	if usable > 0 {
		d.grantCredit += usable
		d.grantedBytes += uint64(usable)
		if proactive {
			d.proactiveCredit += usable
		}
	}

	crossDemand := d.cross.DemandPRBs(now, c.clock.SlotDuration)
	maxOwn := int(float64(c.totalPRB) * c.cfg.MaxUEShare)
	ownDemand := 0
	if d.grantCredit > 0 {
		ownDemand = phy.PRBsForBytes(mcs, d.grantCredit, maxOwn)
	}
	ownPRB, crossPRB := splitPRBs(ownDemand, crossDemand, budget)
	if ownPRB > 0 {
		tbBytes := phy.TransportBlockSizeBytes(mcs, ownPRB)
		take := tbBytes
		if take > d.grantCredit {
			take = d.grantCredit
		}
		wasProactive := d.proactiveCredit > 0
		d.grantCredit -= take
		if d.proactiveCredit > 0 {
			pc := take
			if pc > d.proactiveCredit {
				pc = d.proactiveCredit
			}
			d.proactiveCredit -= pc
		}
		c.transmit(d, now, mcs, snr, ownPRB, crossPRB, take, wasProactive)
	} else if crossPRB > 0 {
		c.obs.OnDCI(trace.DCIRecord{At: now, Dir: d.dir, RNTI: c.rrcm.RNTI(), OtherPRB: crossPRB, MCS: int(mcs)})
	}
}

// transmit builds one TB from the direction's RLC buffer and hands it
// to HARQ. grantBytes (UL only) caps the fill to the consumed grant
// credit; zero means fill to the TBS (DL).
func (c *Cell) transmit(d *direction, now sim.Time, mcs phy.MCS, snr float64, ownPRB, crossPRB, grantBytes int, proactive bool) {
	tbsBits := phy.TransportBlockSizeBits(mcs, ownPRB)
	capacity := tbsBits / 8
	if grantBytes > 0 && grantBytes < capacity {
		capacity = grantBytes
	}
	tb := d.takeTB()
	segs, used := d.tx.FillTBInto(tb.Segments[:0], capacity, now)
	waste := capacity - used
	if waste > 0 {
		d.wastedBytes += uint64(waste)
	}
	if len(segs) == 0 {
		tb.Segments = segs
		d.tbPool = append(d.tbPool, tb)
		// Grant went entirely unused (proactive grant with empty
		// buffer, or over-granting): record the wasted allocation.
		c.obs.OnDCI(trace.DCIRecord{
			At: now, Dir: d.dir, RNTI: c.rrcm.RNTI(),
			OwnPRB: ownPRB, OtherPRB: crossPRB, MCS: int(mcs),
			TBSBits: tbsBits, Proactive: proactive, Unused: true,
		})
		return
	}
	carriesRLCRetx := false
	for i := range segs {
		if segs[i].RLCRetx {
			carriesRLCRetx = true
			break
		}
	}
	c.nextTBID++
	*tb = mac.TB{
		ID: c.nextTBID, Dir: d.dir, SentAt: now,
		PRBs: ownPRB, MCS: mcs, TBSBits: tbsBits, UsedBits: used * 8,
		Segments: segs, Proactive: proactive, CarriesRLCRetx: carriesRLCRetx,
	}
	d.tbsSent++
	d.harq.Transmit(tb, snr, c.clock.SlotDuration)
	c.emitDCI(d, now, tb, crossPRB, false)
	if carriesRLCRetx {
		c.obs.OnGNBLog(trace.GNBLogRecord{At: now, Kind: trace.GNBLogRLCRetx, Dir: d.dir, Note: "rlc retx tx"})
	}
}

func (c *Cell) emitDCI(d *direction, now sim.Time, tb *mac.TB, crossPRB int, isRetx bool) {
	c.obs.OnDCI(trace.DCIRecord{
		At: now, Dir: d.dir, RNTI: c.rrcm.RNTI(),
		OwnPRB: tb.PRBs, OtherPRB: crossPRB,
		MCS: int(tb.MCS), TBSBits: tb.TBSBits, UsedBits: tb.UsedBits,
		HARQRetx: isRetx || tb.Attempt > 0, RLCRetx: tb.CarriesRLCRetx,
		Proactive: tb.Proactive, Unused: tb.UsedBits < tb.TBSBits,
	})
}

// splitPRBs divides the slot budget between the experiment UE and the
// cross-traffic aggregate. When both fit, both are satisfied; under
// contention the budget is split proportionally to demand — so heavy
// cross traffic crowds out the experiment UE, as in §5.1.2.
func splitPRBs(own, cross, budget int) (ownPRB, crossPRB int) {
	if own+cross <= budget {
		return own, cross
	}
	total := own + cross
	if total == 0 {
		return 0, 0
	}
	ownPRB = budget * own / total
	if own > 0 && ownPRB == 0 {
		ownPRB = 1
	}
	crossPRB = budget - ownPRB
	if crossPRB > cross {
		crossPRB = cross
	}
	return ownPRB, crossPRB
}

// DirStats summarizes a direction's counters for tests and telemetry.
type DirStats struct {
	TBsSent      uint64
	WastedBytes  uint64
	GrantedBytes uint64
	HARQFirstTx  uint64
	HARQRetx     uint64
	HARQExhaust  uint64
	RLCRetx      uint64
	HoLBurstMax  int
}

// ULStats returns uplink counters.
func (c *Cell) ULStats() DirStats { return statsOf(c.ul) }

func statsOf(d *direction) DirStats {
	return DirStats{
		TBsSent:      d.tbsSent,
		WastedBytes:  d.wastedBytes,
		GrantedBytes: d.grantedBytes,
		HARQFirstTx:  d.harq.FirstTx,
		HARQRetx:     d.harq.Retx,
		HARQExhaust:  d.harq.Exhausted,
		RLCRetx:      d.tx.RetxCount,
		HoLBurstMax:  d.rx.HoLBlockedMax,
	}
}
