package cluster

import (
	"fmt"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/trace"
)

// record is a shorthand for the streamed record type.
type record = extension.Record

// offerRecords feeds records to an aggregator as one batch frame, the one
// way browsing records reach its shards, and returns how many it accepted.
func offerRecords(agg *collector.Aggregator, recs ...extension.Record) int {
	acc, _ := agg.OfferExtensionFrame(nil, recs, trace.SpanContext{})
	return acc
}

// testRecords builds n deterministic browsing records spanning several
// (city, ISP) groups, so any partitioning splits at least some groups.
func testRecords(n int) []extension.Record {
	cities := []string{"seattle", "berlin", "tokyo", "austin", "lagos"}
	isps := []string{"starlink", "comcast", "telekom"}
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]extension.Record, n)
	for i := range out {
		out[i] = extension.Record{
			UserID:  fmt.Sprintf("u%03d", i%41),
			City:    cities[i%len(cities)],
			Country: "test",
			ISP:     isps[(i/len(cities))%len(isps)],
			ASN:     64512 + i%3,
			At:      base.Add(time.Duration(i) * time.Second),
			Domain:  fmt.Sprintf("site%02d.example", i%37),
			Rank:    1 + i%1000,
			Popular: i%3 == 0,
			PTTMs:   20 + float64(i%400)*0.75,
			PLTMs:   180 + float64(i%900)*1.25,
		}
	}
	return out
}

// testSamples builds n deterministic node samples over several (node, kind)
// groups, as the logs of earlier builds hold them.
func testSamples(n int) []dataset.NodeSample {
	nodes := []string{"rpi-anchorage", "rpi-fairbanks", "rpi-utqiagvik"}
	kinds := []string{"iperf", "udp", "speedtest"}
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]dataset.NodeSample, n)
	for i := range out {
		out[i] = dataset.NodeSample{
			Node:     nodes[i%len(nodes)],
			Kind:     kinds[(i/len(nodes))%len(kinds)],
			At:       base.Add(time.Duration(i) * time.Minute),
			DownMbps: 50 + float64(i%200)*0.9,
			UpMbps:   5 + float64(i%40)*0.2,
			LossPct:  float64(i%7) * 0.5,
			PingMs:   30 + float64(i%90)*0.6,
		}
	}
	return out
}
