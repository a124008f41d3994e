package experiments

import (
	"fmt"
	"strings"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/stats"
)

// fig8 regenerates Fig. 8: per-cell CDFs of one-way delay, target
// bitrate, frame rate, and jitter-buffer delay for UL and DL streams.
func fig8(o Options) (Result, error) {
	var b strings.Builder
	media := []netem.MediaKind{netem.KindVideo, netem.KindAudio}
	runs, err := o.shared.presets()
	if err != nil {
		return Result{}, err
	}
	for _, run := range runs {
		cfg, set := run.Cfg, run.Set
		fmt.Fprintf(&b, "== %s ==\n", cfg.Name)
		tb := stats.NewTable("Metric", "UL p50", "UL p90", "DL p50", "DL p90")

		ulD := stats.NewCDF(set.PacketDelays(netem.Uplink, media...))
		dlD := stats.NewCDF(set.PacketDelays(netem.Downlink, media...))
		tb.AddRow("one-way delay (ms)", ulD.Median(), ulD.Quantile(0.9), dlD.Median(), dlD.Quantile(0.9))

		// Target bitrate: UL sender is the local client.
		var ulRate, dlRate, ulFPS, dlFPS, ulJB, dlJB []float64
		for _, r := range set.StatsSide(true) { // local
			ulRate = append(ulRate, r.TargetBitrateBps/1e6)
			dlFPS = append(dlFPS, r.InboundFPS) // local receives the DL stream
			dlJB = append(dlJB, r.VideoJBDelayMs)
		}
		for _, r := range set.StatsSide(false) { // remote
			dlRate = append(dlRate, r.TargetBitrateBps/1e6)
			ulFPS = append(ulFPS, r.InboundFPS)
			ulJB = append(ulJB, r.VideoJBDelayMs)
		}
		ur, dr := stats.NewCDF(ulRate), stats.NewCDF(dlRate)
		tb.AddRow("target bitrate (Mbps)", ur.Median(), ur.Quantile(0.9), dr.Median(), dr.Quantile(0.9))
		uf, df := stats.NewCDF(ulFPS), stats.NewCDF(dlFPS)
		tb.AddRow("inbound frame rate (fps)", uf.Median(), uf.Quantile(0.9), df.Median(), df.Quantile(0.9))
		uj, dj := stats.NewCDF(ulJB), stats.NewCDF(dlJB)
		tb.AddRow("jitter-buffer delay (ms)", uj.Median(), uj.Quantile(0.9), dj.Median(), dj.Quantile(0.9))
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	return Result{
		Title: "Fig. 8 — WebRTC performance metrics across the four 5G cells",
		PaperRef: "paper: UL delay medians exceed DL everywhere except the T-Mobile FDD DL long tail; " +
			"Amarisoft UL bitrate well below its DL; DL frame rates above UL",
		Text: b.String(),
	}, nil
}

// table3 regenerates Table 3: video resolution distribution per cell.
func table3(o Options) (Result, error) {
	tb := stats.NewTable("Cell", "Stream", "180p", "360p", "540p", "720p", "1080p")
	runs, err := o.shared.presets()
	if err != nil {
		return Result{}, err
	}
	for _, run := range runs {
		cfg, s := run.Cfg, run.Sess
		add := func(stream string, shares map[rtc.Resolution]float64) {
			tb.AddRow(cfg.Name, stream,
				shares[rtc.Res180], shares[rtc.Res360], shares[rtc.Res540],
				shares[rtc.Res720], shares[rtc.Res1080])
		}
		add("UL", s.Local.Video().ResolutionShares())
		add("DL", s.Remote.Video().ResolutionShares())
	}
	return Result{
		Title:    "Table 3 — video resolution distribution (fraction of time), UL vs DL",
		PaperRef: "paper: healthy cells sit at 540p; the Amarisoft UL spends 35% at 360p due to its poor uplink",
		Text:     tb.String(),
	}, nil
}
