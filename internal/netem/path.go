package netem

import (
	"sort"

	"github.com/domino5g/domino/internal/sim"
)

// PathConfig parameterizes a wired path segment (campus↔GCP leg, or the
// private-core hop).
type PathConfig struct {
	// BaseDelay is the fixed propagation+processing delay.
	BaseDelay sim.Time
	// JitterStd is the standard deviation of per-packet delay noise
	// (truncated at zero extra delay).
	JitterStd sim.Time
	// LossRate is the i.i.d. drop probability.
	LossRate float64
	// RateBps caps throughput; zero means unbounded. When set, packets
	// serialize through a single queue at this rate (models the access
	// bottleneck for wired comparisons).
	RateBps float64
}

// WiredGCPPath returns the paper's campus↔GCP wired leg: ~8 ms one-way
// with sub-millisecond jitter and negligible loss.
func WiredGCPPath() PathConfig {
	return PathConfig{
		BaseDelay: 8 * sim.Millisecond,
		JitterStd: 400 * sim.Microsecond,
		LossRate:  2e-5,
	}
}

// PrivateCorePath returns the short on-prem hop between a private 5G
// core and a local server.
func PrivateCorePath() PathConfig {
	return PathConfig{
		BaseDelay: 700 * sim.Microsecond,
		JitterStd: 80 * sim.Microsecond,
	}
}

// Path is a Link that delays (and occasionally drops) packets per its
// config. Delivery preserves FIFO order: a delayed packet never
// overtakes an earlier one (matching a wired queue).
type Path struct {
	cfg    PathConfig
	engine *sim.Engine
	rng    *sim.RNG
	sink   Sink

	lastDelivery sim.Time
	busyUntil    sim.Time

	// extraDelays holds scripted delay windows for case-study scenarios
	// (e.g. injecting reverse-path delay for the Fig. 22 experiment).
	extraDelays []delayWindow

	// deliverFn is the delivery callback built once at construction and
	// dispatched per packet via ScheduleArg, so sending a packet does
	// not allocate a closure.
	deliverFn func(any)

	// Sent/Dropped count packets for loss accounting.
	Sent    uint64
	Dropped uint64
}

type delayWindow struct {
	start, end sim.Time
	extra      sim.Time
	// kindOnly restricts the window to one payload class when set
	// (used to inflate only the RTCP feedback path, Fig. 22).
	kindOnly bool
	kind     MediaKind
}

// NewPath builds a path segment delivering into sink.
func NewPath(engine *sim.Engine, rng *sim.RNG, cfg PathConfig, sink Sink) *Path {
	p := &Path{cfg: cfg, engine: engine, rng: rng.Fork(), sink: sink}
	p.deliverFn = func(a any) {
		pkt := a.(*Packet)
		pkt.ArrivedAt = p.engine.Now()
		p.sink(pkt)
	}
	return p
}

// ScriptExtraDelay adds `extra` delay to every packet sent in
// [start, end). Windows may overlap; their extras accumulate.
func (p *Path) ScriptExtraDelay(start, end, extra sim.Time) {
	p.extraDelays = append(p.extraDelays, delayWindow{start: start, end: end, extra: extra})
	sort.Slice(p.extraDelays, func(i, j int) bool { return p.extraDelays[i].start < p.extraDelays[j].start })
}

// ScriptExtraDelayKind adds `extra` delay only to packets of the given
// payload class sent in [start, end) — e.g. delaying RTCP while media
// flows untouched, the paper's Fig. 22 scenario.
func (p *Path) ScriptExtraDelayKind(kind MediaKind, start, end, extra sim.Time) {
	p.extraDelays = append(p.extraDelays, delayWindow{start: start, end: end, extra: extra, kindOnly: true, kind: kind})
	sort.Slice(p.extraDelays, func(i, j int) bool { return p.extraDelays[i].start < p.extraDelays[j].start })
}

// Send implements Link.
func (p *Path) Send(pkt *Packet) {
	now := p.engine.Now()
	p.Sent++
	if p.cfg.LossRate > 0 && p.rng.Bool(p.cfg.LossRate) {
		p.Dropped++
		return
	}
	delay := p.cfg.BaseDelay
	if p.cfg.JitterStd > 0 {
		j := sim.Time(p.rng.Normal(0, float64(p.cfg.JitterStd)))
		if j < -p.cfg.BaseDelay/2 {
			j = -p.cfg.BaseDelay / 2
		}
		delay += j
	}
	for _, w := range p.extraDelays {
		if now >= w.start && now < w.end && (!w.kindOnly || w.kind == pkt.Kind) {
			delay += w.extra
		}
	}
	// Serialization through a rate cap, if configured.
	if p.cfg.RateBps > 0 {
		txTime := sim.Time(float64(pkt.Size*8) / p.cfg.RateBps * float64(sim.Second))
		start := now
		if p.busyUntil > start {
			start = p.busyUntil
		}
		p.busyUntil = start + txTime
		delay += (start - now) + txTime
	}
	deliverAt := now + delay
	// FIFO: never deliver before a previously sent packet.
	if deliverAt < p.lastDelivery {
		deliverAt = p.lastDelivery
	}
	p.lastDelivery = deliverAt
	p.engine.ScheduleArg(deliverAt, p.deliverFn, pkt)
}
