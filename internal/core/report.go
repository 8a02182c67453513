package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"starlinkview/internal/extension"
)

// Report renders experiment results as text tables, shaped like the paper's
// tables and figure captions, with the published values alongside.

// ReportTable1 writes Table 1 next to the paper's numbers.
func ReportTable1(w io.Writer, rows []extension.TableRow) {
	fmt.Fprintln(w, "Table 1: citywise breakdown of extension data (reproduced | paper)")
	fmt.Fprintf(w, "%-10s | %28s | %28s\n", "City", "Starlink (#req #dom medPTT)", "Non-Starlink (#req #dom medPTT)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %6d %5d %5.0fms (%5.0f) | %6d %5d %5.0fms (%5.0f)\n",
			r.City,
			r.StarlinkReqs, r.StarlinkDomains, r.StarlinkMedianPTT, Paper("Table 1", r.City, "Starlink median PTT"),
			r.NonSLReqs, r.NonSLDomains, r.NonSLMedianPTT, Paper("Table 1", r.City, "non-Starlink median PTT"))
	}
}

// ReportFigure1 writes the population table.
func ReportFigure1(w io.Writer, rows []PopulationRow) {
	fmt.Fprintf(w, "Figure 1: extension users per city (%g Starlink + %g non-Starlink across %g cities)\n",
		Paper("Figure 1", "Starlink", "users"), Paper("Figure 1", "non-Starlink", "users"), Paper("Figure 1", "all", "cities"))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s (%s)  starlink=%d  non-starlink=%d\n", r.City, r.Country, r.Starlink, r.NonStarlink)
	}
}

// ReportFigure3 writes the CDF medians per series.
func ReportFigure3(w io.Writer, series []Fig3Series) {
	fmt.Fprintln(w, "Figure 3: PTT before (AS36492/Google) vs after (AS14593/SpaceX) the egress switch")
	for _, s := range series {
		band := "unpopular"
		if s.Popular {
			band = "popular  "
		}
		fmt.Fprintf(w, "  %-8s %s AS%d: median %6.1f ms (n=%d)\n", s.City, band, s.ASN, s.Median, s.N)
	}
}

// ReportFigure4 writes the per-condition PTT summaries.
func ReportFigure4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "Figure 4: PTT of Google services (London, Starlink) by weather (paper: %.1f clear -> %.1f moderate rain)\n",
		Paper("Figure 4", "Clear Sky", "median PTT"), Paper("Figure 4", "Moderate Rain", "median PTT"))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s median %6.1f ms  [q1 %6.1f  q3 %6.1f]  n=%d\n",
			r.Condition, r.Summary.Median, r.Summary.Q1, r.Summary.Q3, r.Summary.N)
	}
}

// ReportFigure5 writes the hop-by-hop RTT series.
func ReportFigure5(w io.Writer, res Fig5Result) {
	fmt.Fprintln(w, "Figure 5: RTT per hop, London -> N. Virginia (mean ms per hop)")
	kinds := make([]string, 0, len(res))
	for k := range res {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s", k)
		for _, h := range res[k] {
			fmt.Fprintf(w, " %6.1f", h.MeanMs)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %10s", "")
		for _, h := range res[k] {
			name := h.Addr
			if len(name) > 6 {
				name = name[:6]
			}
			fmt.Fprintf(w, " %6s", name)
		}
		fmt.Fprintln(w)
	}
}

// ReportTable2 writes the queueing-delay comparison.
func ReportTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: min|median|max queueing delay (ms), bent pipe vs whole path (paper values in parens)")
	for _, r := range rows {
		p := func(quantity string) float64 { return Paper("Table 2", r.City, quantity) }
		fmt.Fprintf(w, "  %-14s wireless %5.1f|%5.1f|%5.1f (%.1f|%.1f|%.1f)  whole %5.1f|%5.1f|%5.1f (%.1f|%.1f|%.1f)\n",
			r.City,
			r.Wireless.MinMs, r.Wireless.MedianMs, r.Wireless.MaxMs,
			p("wireless min"), p("wireless median"), p("wireless max"),
			r.Whole.MinMs, r.Whole.MedianMs, r.Whole.MaxMs,
			p("whole min"), p("whole median"), p("whole max"))
	}
}

// ReportTable3 writes the speedtest medians.
func ReportTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: browser speedtest medians to Iowa (reproduced | paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s DL %6.1f Mbps (%6.1f)   UL %5.1f Mbps (%4.1f)   n=%d\n",
			r.City, r.DownMbps, Paper("Table 3", r.City, "median download"),
			r.UpMbps, Paper("Table 3", r.City, "median upload"), r.N)
	}
}

// ReportFigure6a writes the per-node iperf medians.
func ReportFigure6a(w io.Writer, rows []Fig6aSeries) {
	fmt.Fprintf(w, "Figure 6a: iperf download CDF per volunteer node (paper medians: Barcelona %g, NC %g)\n",
		Paper("Figure 6a", "Barcelona", "median download"), Paper("Figure 6a", "NorthCarolina", "median download"))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s median %6.1f Mbps over %d samples\n", r.Label, r.MedianMbps, r.N)
	}
}

// ReportFigure6b writes the throughput time series summary and a sparkline.
func ReportFigure6b(w io.Writer, pts []Fig6bPoint) {
	if len(pts) == 0 {
		return
	}
	minD, maxD := pts[0].DownMbps, pts[0].DownMbps
	for _, p := range pts {
		if p.DownMbps < minD {
			minD = p.DownMbps
		}
		if p.DownMbps > maxD {
			maxD = p.DownMbps
		}
	}
	fmt.Fprintf(w, "Figure 6b: UK DL/UL over time, %d samples, DL %.1f..%.1f Mbps (paper: >%gx diurnal swing)\n",
		len(pts), minD, maxD, Paper("Figure 6b", "UK", "diurnal download swing"))
	fmt.Fprintf(w, "  DL ")
	fmt.Fprintln(w, sparkline(pts, func(p Fig6bPoint) float64 { return p.DownMbps }))
	fmt.Fprintf(w, "  UL ")
	fmt.Fprintln(w, sparkline(pts, func(p Fig6bPoint) float64 { return p.UpMbps }))
}

// sparkline renders a crude ASCII level strip.
func sparkline(pts []Fig6bPoint, f func(Fig6bPoint) float64) string {
	if len(pts) == 0 {
		return ""
	}
	levels := []rune("_.-=^")
	max := f(pts[0])
	for _, p := range pts {
		if v := f(p); v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	for _, p := range pts {
		i := int(f(p) / max * float64(len(levels)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(levels) {
			i = len(levels) - 1
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}

// ReportFigure6c writes the loss CCDF callouts.
func ReportFigure6c(w io.Writer, res Fig6cResult) {
	fmt.Fprintf(w, "Figure 6c: UDP loss CCDF over %d runs: P(loss>=5%%)=%.3f (paper %g), P(>=10%%)=%.3f (paper %g), max %.1f%% (paper ~%g%%)\n",
		len(res.LossPcts), res.CCDFAt5, Paper("Figure 6c", "London", "P(loss>=5%)"),
		res.CCDFAt10, Paper("Figure 6c", "London", "P(loss>=10%)"),
		res.MaxPct, Paper("Figure 6c", "London", "max loss"))
}

// ReportFigure7 writes the loss/LoS correlation summary.
func ReportFigure7(w io.Writer, res Fig7Result) {
	lossySeconds := 0
	for _, l := range res.LossPct {
		if l >= 2 {
			lossySeconds++
		}
	}
	fmt.Fprintf(w, "Figure 7: 12-minute window; %d serving satellites; %d/%d seconds with >=2%% loss\n",
		len(res.DistanceKm), lossySeconds, len(res.LossPct))
	fmt.Fprintf(w, "  loss within 15s of a handover: %.0f%% of all loss in %.0f%% of the time (lift %.1fx, point-biserial r=%.2f)\n",
		100*res.Attribution.NearShare, 100*res.Attribution.NearFraction,
		res.Attribution.Lift, res.LossHandoverCorrelation)
	// Show serving transitions with whether a loss clump followed.
	prev := ""
	for sec, name := range res.Serving {
		if name == prev {
			continue
		}
		clump := 0.0
		for s := sec; s < sec+10 && s < len(res.LossPct); s++ {
			if res.LossPct[s] > clump {
				clump = res.LossPct[s]
			}
		}
		fmt.Fprintf(w, "  t=%4ds serving -> %-14s peak loss next 10s: %4.1f%%\n", sec, name, clump)
		prev = name
	}
}

// ReportFigure8 writes the CC comparison.
func ReportFigure8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8: normalised TCP throughput (goodput / UDP burst capacity)")
	fmt.Fprintf(w, "  %-7s %9s %9s\n", "algo", "starlink", "wifi")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-7s %9.2f %9.2f\n", r.Algorithm, r.Starlink, r.WiFi)
	}
	fmt.Fprintf(w, "  (paper: on Starlink BBR leads at ~half the UDP capacity, Vegas trails; on WiFi all >%g, BBR >%g)\n",
		Paper("Figure 8", "all", "WiFi normalised throughput"), Paper("Figure 8", "bbr", "WiFi normalised throughput"))
}
