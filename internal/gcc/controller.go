package gcc

import (
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// Config aggregates the full controller configuration.
type Config struct {
	Trendline TrendlineConfig
	AIMD      AIMDConfig
	Pushback  PushbackConfig
	StartRate float64
}

// DefaultConfig returns the standard GCC configuration with the given
// starting rate (0 selects 1 Mbit/s).
func DefaultConfig(startRate float64) Config {
	if startRate <= 0 {
		startRate = 1_000_000
	}
	return Config{
		Trendline: DefaultTrendlineConfig(),
		AIMD:      DefaultAIMDConfig(),
		Pushback:  DefaultPushbackConfig(),
		StartRate: startRate,
	}
}

// Controller is the sender-side GCC pipeline. Drive it with
// OnPacketSent for every outgoing media packet and OnFeedback for every
// transport-wide RTCP report; read TargetRate (estimator output) and
// PushbackRate (final encoder/pacer rate).
type Controller struct {
	cfg Config

	interArrival *InterArrival
	trendline    *Trendline
	aimd         *AIMD
	acked        *AckedBitrate
	loss         *LossEstimator
	pushback     *Pushback

	target    float64
	srttMs    float64
	lastFBAt  sim.Time
	overuses  uint64
	fastRecov uint64
	feedbacks uint64
	lossFrac  float64
}

// NewController constructs a controller at time now.
func NewController(cfg Config, now sim.Time) *Controller {
	if cfg.StartRate <= 0 {
		cfg.StartRate = 1_000_000
	}
	return &Controller{
		cfg:          cfg,
		interArrival: NewInterArrival(),
		trendline:    NewTrendline(cfg.Trendline),
		aimd:         NewAIMD(cfg.AIMD, cfg.StartRate, now),
		acked:        NewAckedBitrate(0),
		loss:         NewLossEstimator(cfg.StartRate),
		pushback:     NewPushback(cfg.Pushback),
		target:       cfg.StartRate,
	}
}

// OnPacketSent registers an outgoing media packet for outstanding-bytes
// tracking.
func (c *Controller) OnPacketSent(seq uint64, size int) {
	c.pushback.OnPacketSent(seq, size)
}

// OnFeedback processes one transport-wide feedback report (ordered by
// send time) at time now.
func (c *Controller) OnFeedback(now sim.Time, results []PacketResult) {
	if len(results) == 0 {
		return
	}
	c.feedbacks++

	wasOveruse := c.trendline.State() == trace.GCCOveruse
	lost, total := 0, 0
	var lastRTTMs float64 = -1
	for _, r := range results {
		total++
		c.pushback.OnAcked(r.Seq)
		if r.Lost {
			lost++
			continue
		}
		c.acked.OnAcked(r.RecvAt, r.Size)
		// RTT proxy: send→receive delay plus the feedback return leg
		// (now − receive).
		rtt := (r.RecvAt - r.SentAt + now - r.RecvAt).Milliseconds()
		lastRTTMs = rtt
		if sample, ok := c.interArrival.OnPacket(r.SentAt, r.RecvAt); ok {
			c.trendline.Update(sample)
		}
	}
	if lastRTTMs > 0 {
		if c.srttMs == 0 {
			c.srttMs = lastRTTMs
		} else {
			c.srttMs = 0.9*c.srttMs + 0.1*lastRTTMs
		}
	}
	if total > 0 {
		c.lossFrac = float64(lost) / float64(total)
	}

	state := c.trendline.State()
	if state == trace.GCCOveruse && !wasOveruse {
		c.overuses++
	}

	ackedBps := c.acked.Rate(now)
	before := c.aimd.Rate()
	delayRate := c.aimd.Update(now, state, ackedBps, c.srttMs)
	if delayRate > before*1.5 && before > 0 {
		// A jump of more than the additive schedule indicates the
		// fast-recovery shortcut fired.
		c.fastRecov++
	}
	lossRate := c.loss.Update(c.lossFrac, delayRate)
	c.target = delayRate
	if lossRate < c.target {
		c.target = lossRate
	}
	if c.target < c.cfg.AIMD.MinRateBps {
		c.target = c.cfg.AIMD.MinRateBps
	}
	c.pushback.Update(now, c.target, c.srttMs)
	c.lastFBAt = now
}

// Tick advances the pushback controller between feedback reports (the
// window must react even when feedback stalls — that is the Fig. 22
// failure mode).
func (c *Controller) Tick(now sim.Time) {
	c.pushback.Update(now, c.target, c.srttMs)
}

// PushbackRate returns the congestion-window constrained media rate (bps).
func (c *Controller) PushbackRate() float64 { return c.pushback.Rate() }

// State returns the current overuse-detector classification.
func (c *Controller) State() trace.GCCState { return c.trendline.State() }

// Internals is a snapshot of controller state for the stats stream.
type Internals struct {
	TargetRateBps    float64
	PushbackRateBps  float64
	OutstandingBytes int
	CongestionWindow int
	State            trace.GCCState
	TrendSlope       float64
	TrendThreshold   float64
	AckedBitrateBps  float64
	SRTTMs           float64
	LossFraction     float64
	OveruseEvents    uint64
	FastRecoveries   uint64
}

// Snapshot returns the controller internals at time now.
func (c *Controller) Snapshot(now sim.Time) Internals {
	return Internals{
		TargetRateBps:    c.target,
		PushbackRateBps:  c.pushback.Rate(),
		OutstandingBytes: c.pushback.OutstandingBytes(),
		CongestionWindow: c.pushback.WindowBytes(),
		State:            c.trendline.State(),
		TrendSlope:       c.trendline.ModifiedTrend(),
		TrendThreshold:   c.trendline.Threshold(),
		AckedBitrateBps:  c.acked.Rate(now),
		SRTTMs:           c.srttMs,
		LossFraction:     c.lossFrac,
		OveruseEvents:    c.overuses,
		FastRecoveries:   c.fastRecov,
	}
}
