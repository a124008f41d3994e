package experiments

import (
	"fmt"
	"strings"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stats"
	"github.com/domino5g/domino/internal/trace"
	"github.com/domino5g/domino/internal/zoomqss"
)

// runCellSession runs one call on a preset and returns its trace.
func runCellSession(cfg ran.CellConfig, duration sim.Time, seed uint64) (*rtc.Session, *trace.Set, error) {
	s, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, seed))
	if err != nil {
		return nil, nil, err
	}
	set := s.Run(duration)
	return s, set, nil
}

// runWiredSession runs the wired baseline call.
func runWiredSession(duration sim.Time, seed uint64) (*rtc.WiredSession, *trace.Set) {
	s := rtc.NewWiredSession(rtc.WiredSessionConfig{
		Path:   netem.WiredGCPPath(),
		Local:  rtc.DefaultClientConfig("local", true),
		Remote: rtc.DefaultClientConfig("remote", false),
		Seed:   seed,
	})
	return s, s.Run(duration)
}

// callPair is the T-Mobile FDD call and the wired baseline call at Seed,
// which Figs. 2-4 compare.
type callPair struct {
	cell              *rtc.Session
	wired             *rtc.WiredSession
	cellSet, wiredSet *trace.Set
}

func runCallPair(o Options) (p callPair, err error) {
	if p.cell, p.cellSet, err = runCellSession(ran.TMobileFDD(), o.Duration, o.Seed); err == nil {
		p.wired, p.wiredSet = runWiredSession(o.Duration, o.Seed)
	}
	return p, err
}

// table1 regenerates Table 1: per-cell telemetry event rates.
func table1(o Options) (Result, error) {
	tb := stats.NewTable("Dataset", "Type", "Duplex", "DCI/min", "gNB/min", "Pkt/min", "WebRTC/min")
	runs, err := o.shared.presets()
	if err != nil {
		return Result{}, err
	}
	for _, run := range runs {
		cfg, set := run.Cfg, run.Set
		c := set.Counts()
		typ := "Public"
		if cfg.HasGNBLog || cfg.Name == "Mosolabs 20MHz TDD" {
			typ = "Private"
		}
		duplex := "TDD"
		if cfg.Frame.IsFDD() {
			duplex = "FDD"
		}
		tb.AddRow(cfg.Name, typ, duplex,
			set.RatePerMinute(c.DCI), set.RatePerMinute(c.GNBLog),
			set.RatePerMinute(c.Packets), set.RatePerMinute(c.WebRTC))
	}
	// Zoom QSS row: per-minute records ≈ 1 (the API reports minutely).
	tb.AddRow("Zoom API (campus)", "API", "-", 0.0, 0.0, 0.0, 1.0)
	return Result{
		Title: "Table 1 — dataset overview: telemetry event rates per minute",
		PaperRef: "paper: DCI 14k-38k/min, gNB 0-29k/min (Amarisoft only), " +
			"packets 97k-132k/min, WebRTC 8.7k-13.2k/min",
		Text: tb.String(),
	}, nil
}

// fig2 regenerates Fig. 2: one-way delay CDFs, 5G vs wired.
func fig2(o Options) (Result, error) {
	p, err := o.shared.pair()
	if err != nil {
		return Result{}, err
	}
	cellSet, wiredSet := p.cellSet, p.wiredSet

	var b strings.Builder
	tb := stats.NewTable("Series", "p50 (ms)", "p90", "p99", "max")
	add := func(name string, xs []float64) {
		c := stats.NewCDF(xs)
		tb.AddRow(name, c.Median(), c.Quantile(0.9), c.Quantile(0.99), c.Max())
	}
	media := []netem.MediaKind{netem.KindVideo, netem.KindAudio}
	add("cellular UL", cellSet.PacketDelays(netem.Uplink, media...))
	add("cellular DL", cellSet.PacketDelays(netem.Downlink, media...))
	add("wired UL", wiredSet.PacketDelays(netem.Uplink, media...))
	add("wired DL", wiredSet.PacketDelays(netem.Downlink, media...))
	b.WriteString(tb.String())

	b.WriteString("\nCDF series (delay ms -> fraction):\n")
	pts := stats.LogSpace(1, 1000, 13)
	for _, s := range []struct {
		name string
		xs   []float64
	}{
		{"cellular-UL", cellSet.PacketDelays(netem.Uplink, media...)},
		{"wired-UL", wiredSet.PacketDelays(netem.Uplink, media...)},
	} {
		c := stats.NewCDF(s.xs)
		fmt.Fprintf(&b, "%-12s", s.name)
		for _, pt := range c.Series(pts) {
			fmt.Fprintf(&b, " %.0f:%.2f", pt[0], pt[1])
		}
		b.WriteString("\n")
	}
	return Result{
		Title:    "Fig. 2 — one-way packet delay: 5G vs wired",
		PaperRef: "paper: 5G inflates median delay by 1-2 orders of magnitude; p99 352/381 ms UL/DL",
		Text:     b.String(),
	}, nil
}

// fig3 regenerates Fig. 3: jitter-buffer delay CDFs.
func fig3(o Options) (Result, error) {
	p, err := o.shared.pair()
	if err != nil {
		return Result{}, err
	}
	cellSet, wiredSet := p.cellSet, p.wiredSet

	tb := stats.NewTable("Stream", "Network", "video p50 (ms)", "video p90", "audio p50", "audio p90")
	row := func(network string, set *trace.Set, local bool, stream string) {
		var video, audio []float64
		for _, r := range set.StatsSide(local) {
			video = append(video, r.VideoJBDelayMs)
			audio = append(audio, r.AudioJBDelayMs)
		}
		v, a := stats.NewCDF(video), stats.NewCDF(audio)
		tb.AddRow(stream, network, v.Median(), v.Quantile(0.9), a.Median(), a.Quantile(0.9))
	}
	// The UL stream is buffered at the remote client; DL at the local.
	row("cellular", cellSet, false, "UL")
	row("cellular", cellSet, true, "DL")
	row("wired", wiredSet, false, "UL")
	row("wired", wiredSet, true, "DL")
	return Result{
		Title:    "Fig. 3 — jitter-buffer delay: 5G vs wired (ITU-T: >150 ms impacts interactivity)",
		PaperRef: "paper: 5G jitter-buffer delays frequently cross the 150 ms interactivity threshold; wired stays below",
		Text:     tb.String(),
	}, nil
}

// fig4 regenerates Fig. 4: concealed audio and freeze fractions.
func fig4(o Options) (Result, error) {
	p, err := o.shared.pair()
	if err != nil {
		return Result{}, err
	}
	tb := stats.NewTable("Stream", "Network", "Concealed fraction", "Freeze fraction")
	for _, c := range []struct {
		stream, network string
		client          *rtc.Client
	}{
		// The UL stream is played back at the remote client.
		{"UL", "cellular", p.cell.Remote}, {"DL", "cellular", p.cell.Local},
		{"UL", "wired", p.wired.Remote}, {"DL", "wired", p.wired.Local},
	} {
		as := c.client.AudioBufferStats()
		cf, ff := 0.0, 0.0
		if as.TotalSamples > 0 {
			cf = float64(as.ConcealedSamples) / float64(as.TotalSamples)
		}
		if o.Duration > 0 {
			ff = c.client.VideoBufferStats(o.Duration).FreezeTotalMs / o.Duration.Milliseconds()
		}
		tb.AddRow(c.stream, c.network, cf, ff)
	}
	return Result{
		Title:    "Fig. 4 — concealed audio samples and video freezes: cellular vs wired",
		PaperRef: "paper: ~12% audio concealed and 6 s frozen over 5G in 5 min; wired near zero",
		Text:     tb.String(),
	}, nil
}

// zoomCDFRows renders per-access-type quantiles for one metric.
func zoomCDFRows(title string, get func(zoomqss.Record) float64, o Options) string {
	recs := zoomqss.Generate(zoomqss.DefaultConfig(), o.Seed)
	tb := stats.NewTable("Access", "p50", "p75", "p90", "p99")
	for _, a := range []zoomqss.AccessType{zoomqss.Wired, zoomqss.WiFi, zoomqss.Cellular} {
		c := stats.NewCDF(zoomqss.Column(zoomqss.Filter(recs, a), get))
		tb.AddRow(a.String(), c.Median(), c.Quantile(0.75), c.Quantile(0.9), c.Quantile(0.99))
	}
	return title + "\n" + tb.String()
}

// fig5 regenerates Fig. 5: campus Zoom jitter by access type.
func fig5(o Options) (Result, error) {
	text := zoomCDFRows("Outbound jitter (ms):", func(r zoomqss.Record) float64 { return r.OutboundJitterMs }, o) +
		"\n" + zoomCDFRows("Inbound jitter (ms):", func(r zoomqss.Record) float64 { return r.InboundJitterMs }, o)
	return Result{
		Title:    "Fig. 5 — campus Zoom dataset: network jitter by access type",
		PaperRef: "paper: jitter consistently higher on cellular than Wi-Fi and wired",
		Text:     text,
	}, nil
}

// fig6 regenerates Fig. 6: campus Zoom loss by access type.
func fig6(o Options) (Result, error) {
	text := zoomCDFRows("Outbound loss (%):", func(r zoomqss.Record) float64 { return r.OutboundLossPct }, o) +
		"\n" + zoomCDFRows("Inbound loss (%):", func(r zoomqss.Record) float64 { return r.InboundLossPct }, o)
	return Result{
		Title:    "Fig. 6 — campus Zoom dataset: packet loss by access type",
		PaperRef: "paper: cellular shows significantly higher loss than wired/Wi-Fi",
		Text:     text,
	}, nil
}
