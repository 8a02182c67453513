// Package bench is the benchmark harness that regenerates every table and
// figure of "A Browser-side View of Starlink Connectivity" (IMC '22), one
// testing.B benchmark per exhibit, plus the ablation benches DESIGN.md calls
// out and micro-benchmarks of the hot substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks execute at a reduced scale so the full sweep stays
// in minutes; each reports its headline numbers as custom metrics next to
// the paper's values (see EXPERIMENTS.md for the mapping). For paper-sized
// runs use cmd/starlinkbench with -scale 1.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlinkview/internal/cc"
	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/extension"
	"starlinkview/internal/geo"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/obs"
	"starlinkview/internal/orbit"
	"starlinkview/internal/trace"
	"starlinkview/internal/tranco"
	"starlinkview/internal/wal"
	"starlinkview/internal/weather"
	"starlinkview/internal/webperf"
)

// The study (and its six-month browsing campaign) is shared across the
// browsing-derived benchmarks; building it is itself benchmarked once.
var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		cfg := core.QuickConfig()
		cfg.BrowsingDays = 150 // span both AS migrations for Figure 3
		cfg.Planes = 36
		study, studyErr = core.NewStudy(cfg)
		if studyErr == nil {
			studyErr = study.RunBrowsing()
		}
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

// table1PipelineConfig is the workload for the end-to-end Table 1
// benchmarks: small enough that the serial brute-force baseline finishes in
// sensible time, large enough that the browsing campaign dominates.
func table1PipelineConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.BrowsingDays = 14
	if testing.Short() {
		cfg.BrowsingDays = 7
	}
	return cfg
}

func benchTable1Pipeline(b *testing.B, brute bool, workers int) {
	b.Helper()
	cfg := table1PipelineConfig()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Constellation.BruteForce = brute
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.City == "London" {
				b.ReportMetric(r.StarlinkMedianPTT, "London-SL-medPTT-ms(paper:327)")
				b.ReportMetric(r.NonSLMedianPTT, "London-nonSL-medPTT-ms(paper:443)")
			}
		}
	}
}

// BenchmarkTable1 regenerates the citywise PTT breakdown (paper Table 1)
// end to end: build the study, run the browsing campaign on the pruned
// constellation engine with the parallel driver, aggregate.
func BenchmarkTable1(b *testing.B) { benchTable1Pipeline(b, false, 0) }

// BenchmarkTable1Serial runs the identical workload the way the code did
// before the constellation engine existed: exhaustive visibility scans and a
// serial browsing loop. tools/benchjson pairs it with BenchmarkTable1 to
// report the end-to-end speedup; both produce byte-identical tables.
func BenchmarkTable1Serial(b *testing.B) { benchTable1Pipeline(b, true, 1) }

// BenchmarkFigure1 regenerates the user-population map (paper Figure 1).
func BenchmarkFigure1(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Figure1()
		b.ReportMetric(float64(len(rows)), "cities(paper:10)")
	}
}

// BenchmarkFigure3 regenerates the popular/unpopular PTT CDFs before and
// after the AS switch (paper Figure 3).
func BenchmarkFigure3(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(series)), "cdf-series")
	}
}

// BenchmarkFigure4 regenerates the weather/PTT distributions (paper
// Figure 4: clear-sky 470.5 ms -> moderate-rain 931.5 ms medians).
func BenchmarkFigure4(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Condition.String() {
			case "Clear Sky":
				b.ReportMetric(r.Summary.Median, "clear-medPTT-ms(paper:470.5)")
			case "Moderate Rain":
				b.ReportMetric(r.Summary.Median, "rain-medPTT-ms(paper:931.5)")
			}
		}
	}
}

// BenchmarkFigure5 regenerates the hop-by-hop RTT comparison (paper
// Figure 5).
func BenchmarkFigure5(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if sl := res["starlink"]; len(sl) > 0 {
			b.ReportMetric(sl[0].MeanMs, "starlink-hop1-ms")
			b.ReportMetric(sl[len(sl)-1].MeanMs, "starlink-end-ms")
		}
	}
}

// BenchmarkTable2 regenerates the max-min queueing-delay estimates (paper
// Table 2).
func BenchmarkTable2(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.City == "London" {
				b.ReportMetric(r.Wireless.MedianMs, "London-bentpipe-medq-ms(paper:24.3)")
			}
		}
	}
}

// BenchmarkTable3 regenerates the browser speedtest medians (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.City == "London" {
				b.ReportMetric(r.DownMbps, "London-DL-Mbps(paper:123.2)")
			}
		}
	}
}

// BenchmarkFigure6a regenerates the per-node iperf download CDFs (paper
// Figure 6a).
func BenchmarkFigure6a(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure6a()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Label {
			case "Barcelona":
				b.ReportMetric(r.MedianMbps, "Barcelona-Mbps(paper:147)")
			case "NorthCarolina":
				b.ReportMetric(r.MedianMbps, "NC-Mbps(paper:34.3)")
			}
		}
	}
}

// BenchmarkFigure6b regenerates the UK throughput time series (paper
// Figure 6b).
func BenchmarkFigure6b(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := s.Figure6b()
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for _, p := range pts {
			if p.DownMbps > max {
				max = p.DownMbps
			}
		}
		b.ReportMetric(max, "max-DL-Mbps(paper:~300)")
	}
}

// BenchmarkFigure6c regenerates the UDP loss CCDF (paper Figure 6c:
// P(loss>=5%)=0.12, P(>=10%)=0.06).
func BenchmarkFigure6c(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Figure6c()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CCDFAt5, "CCDF-at-5pct(paper:0.12)")
		b.ReportMetric(res.CCDFAt10, "CCDF-at-10pct(paper:0.06)")
		b.ReportMetric(res.MaxPct, "max-loss-pct(paper:~50)")
	}
}

// BenchmarkFigure7 regenerates the loss/line-of-sight correlation window
// (paper Figure 7).
func BenchmarkFigure7(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.DistanceKm)), "serving-satellites")
	}
}

// BenchmarkFigure8 regenerates the congestion-control comparison (paper
// Figure 8).
func BenchmarkFigure8(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "bbr" {
				b.ReportMetric(r.Starlink, "bbr-starlink-norm(paper:~0.55)")
				b.ReportMetric(r.WiFi, "bbr-wifi-norm(paper:>0.9)")
			}
			if r.Algorithm == "vegas" {
				b.ReportMetric(r.Starlink, "vegas-starlink-norm(paper:lowest)")
			}
		}
	}
}

// BenchmarkAblationLossModel compares bursty handover loss against i.i.d.
// loss of equal mean — the design choice behind Figure 8's CC gap.
func BenchmarkAblationLossModel(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationLossModel()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "cubic" {
				b.ReportMetric(r.Bursty, "cubic-bursty-Mbps")
				b.ReportMetric(r.IID, "cubic-iid-Mbps")
			}
		}
	}
}

// BenchmarkAblationHandoverPolicy compares serving-satellite selection
// policies (highest-elevation vs longest-remaining-visibility).
func BenchmarkAblationHandoverPolicy(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationHandoverPolicy()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "highest-elevation" {
				b.ReportMetric(float64(r.Handovers), "handovers-per-window")
			}
		}
	}
}

// BenchmarkAblationRainFade isolates the rain-fade coupling: page loads
// under moderate rain with the full fade model (capacity + loss) vs a
// latency-only variant, showing the capacity/loss coupling is what produces
// Figure 4's 2x.
func BenchmarkAblationRainFade(b *testing.B) {
	list, err := tranco.NewList(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	site := list.GoogleSite(rng)
	base := webperf.Access{
		RTT: 30 * time.Millisecond, JitterMean: 8 * time.Millisecond,
		DownBps: 200e6, LossProb: 0.0001,
	}
	att := weather.ModerateRain.PathAttenuationDB(40) + 4.5 // incl. wet radome
	full := base
	full.DownBps *= 0.28 // 10^(-att/10) floored
	full.LossProb = 0.0001 + (att-0.5)*0.008
	latencyOnly := base
	latencyOnly.RTT += 8 * time.Millisecond

	opts := webperf.Options{ClientLoc: geo.LatLon{LatDeg: 51.5, LonDeg: -0.12}, CDNEdgeRTT: 4 * time.Millisecond}
	median := func(acc webperf.Access) float64 {
		var vals []float64
		for i := 0; i < 400; i++ {
			pl := webperf.LoadPage(rng, site, acc, opts)
			vals = append(vals, float64(pl.PTT())/1e6)
		}
		// crude median without importing stats: sort-free selection is not
		// needed at benchmark precision; use mean as the reported proxy.
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear := median(base)
		fullFade := median(full)
		latOnly := median(latencyOnly)
		b.ReportMetric(fullFade/clear, "full-fade-ratio(paper:~2)")
		b.ReportMetric(latOnly/clear, "latency-only-ratio")
	}
}

// BenchmarkExtensionISL projects the paper's future-work scenario: RTTs of
// inter-satellite-link routing against today's bent pipe + fibre.
func BenchmarkExtensionISL(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionISL()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.From == "Sydney" {
				b.ReportMetric(r.BentPipeRTTms, "Sydney-bentpipe-RTT-ms")
				b.ReportMetric(r.ISLRTTms, "Sydney-ISL-RTT-ms")
			}
		}
	}
}

// --- Micro-benchmarks of the hot substrates ---

// BenchmarkCollectorIngest measures records/sec through the ingest
// service's sharded aggregation path (hash, bounded queue, per-shard
// streaming stats) at 1, 4 and 8 shards, with concurrent producers.
// offerRecords feeds records to an aggregator as one batch frame, the one
// way browsing records reach its shards, and returns how many it accepted.
func offerRecords(agg *collector.Aggregator, sc trace.SpanContext, recs ...extension.Record) int {
	acc, _ := agg.OfferExtensionFrame(nil, recs, sc)
	return acc
}

func BenchmarkCollectorIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	cities := []string{"London", "Seattle", "Sydney", "Berlin", "Warsaw", "Toronto"}
	isps := []string{"starlink", "broadband", "cellular"}
	recs := make([]extension.Record, 8192)
	for i := range recs {
		recs[i] = extension.Record{
			UserID: "anon-bench", City: cities[rng.Intn(len(cities))],
			Country: "GB", ISP: isps[rng.Intn(len(isps))], ASN: 14593,
			Domain: "site-" + string(rune('a'+rng.Intn(26))) + ".example",
			Rank:   1 + rng.Intn(1000),
			PTTMs:  100 + rng.Float64()*900, PLTMs: 500 + rng.Float64()*2000,
		}
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			agg := collector.NewAggregator(collector.Config{Shards: shards, QueueLen: 4096})
			var idx atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					offerRecords(agg, trace.SpanContext{}, recs[int(idx.Add(1))%len(recs)])
				}
			})
			b.StopTimer()
			agg.Close()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
			snap := agg.Snapshot()
			if snap.Processed != uint64(b.N) {
				b.Fatalf("processed %d != offered %d", snap.Processed, b.N)
			}
		})
	}
}

// BenchmarkTracedIngest mirrors BenchmarkCollectorIngest's 4-shard case on
// a tracer-configured aggregator, with one in every ~100 records carried by
// a root+decode span pair (the representative-record pattern the HTTP layer
// uses). Compare against BenchmarkCollectorIngest/shards=4 — tools/benchjson
// emits the delta — to price the tracing layer; the budget is <= 5%.
func BenchmarkTracedIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	cities := []string{"London", "Seattle", "Sydney", "Berlin", "Warsaw", "Toronto"}
	isps := []string{"starlink", "broadband", "cellular"}
	recs := make([]extension.Record, 8192)
	for i := range recs {
		recs[i] = extension.Record{
			UserID: "anon-bench", City: cities[rng.Intn(len(cities))],
			Country: "GB", ISP: isps[rng.Intn(len(isps))], ASN: 14593,
			Domain: "site-" + string(rune('a'+rng.Intn(26))) + ".example",
			Rank:   1 + rng.Intn(1000),
			PTTMs:  100 + rng.Float64()*900, PLTMs: 500 + rng.Float64()*2000,
		}
	}
	b.Run("shards=4", func(b *testing.B) {
		tracer := trace.New(trace.Config{Seed: 99})
		agg := collector.NewAggregator(collector.Config{
			Shards: 4, QueueLen: 4096, Tracer: tracer,
		})
		var idx atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sends := 0
			for pb.Next() {
				r := recs[int(idx.Add(1))%len(recs)]
				sends++
				if sends%100 == 0 {
					root := tracer.StartRoot("bench ingest", trace.SpanContext{})
					decode := tracer.StartChild(root.Context(), "ingest.decode")
					offerRecords(agg, decode.Context(), r)
					decode.Finish()
					root.Finish()
				} else {
					offerRecords(agg, trace.SpanContext{}, r)
				}
			}
		})
		b.StopTimer()
		agg.Close()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		snap := agg.Snapshot()
		if snap.Processed != uint64(b.N) {
			b.Fatalf("processed %d != offered %d", snap.Processed, b.N)
		}
	})
}

// benchClusterIngest measures durable cluster ingest end to end: WAL-backed
// collectord instances wired into a consistent-hash cluster, driven by one
// synchronous ring-routing client stream per instance — the standard
// scale-out shape of fixed per-instance client concurrency. Every batch is
// acknowledged only after its group-commit fsync; the 10ms commit tick is
// chosen to dwarf the per-batch CPU cost, so a single synchronous stream is
// commit-latency-bound, not CPU-bound, and the comparison measures how the
// cluster scales the commit pipeline rather than how many cores the host
// has. Adding instances multiplies streams whose commit waits overlap.
// Streams are
// ring-aligned (each worker sends only records its instance owns), so the
// comparison isolates horizontal scale from the forwarding path.
// tools/benchjson pairs the 1- and 3-instance rows into the
// cluster-3x-vs-1x-ingest comparison; the target is >=2x.
func benchClusterIngest(b *testing.B, instances int) {
	rng := rand.New(rand.NewSource(17))
	cities := []string{"London", "Seattle", "Sydney", "Berlin", "Warsaw", "Toronto"}
	isps := []string{"starlink", "broadband", "cellular"}
	recs := make([]extension.Record, 4096)
	for i := range recs {
		recs[i] = extension.Record{
			UserID: "anon-bench", City: cities[rng.Intn(len(cities))],
			Country: "GB", ISP: isps[rng.Intn(len(isps))], ASN: 14593,
			Domain: "site-" + string(rune('a'+rng.Intn(26))) + ".example",
			Rank:   1 + rng.Intn(1000),
			PTTMs:  100 + rng.Float64()*900, PLTMs: 500 + rng.Float64()*2000,
		}
	}

	srvs := make([]*collector.Server, instances)
	addrs := make([]string, instances)
	for i := range srvs {
		srv, err := collector.OpenServer(collector.Config{
			Shards: 2, QueueLen: 4096,
			Registry: obs.NewRegistry(),
			WAL: collector.WALConfig{
				Dir:           b.TempDir(),
				FsyncInterval: 10 * time.Millisecond,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	nodes := make([]*cluster.Node, instances)
	for i := range srvs {
		n, err := cluster.NewNode(cluster.NodeConfig{
			Server: srvs[i], Self: addrs[i], Peers: addrs,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	defer func() {
		for i := range srvs {
			nodes[i].Close()
			_ = srvs[i].Shutdown(context.Background())
		}
	}()

	// Pin each worker's stream to its own instance: partition the record
	// template by ring owner and split b.N proportionally.
	ring := cluster.NewRing(addrs, cluster.DefaultVNodes)
	idxOf := make(map[string]int, instances)
	for i, a := range addrs {
		idxOf[a] = i
	}
	parts := make([][]extension.Record, instances)
	for _, r := range recs {
		w := idxOf[ring.Owner(r.City, r.ISP)]
		parts[w] = append(parts[w], r)
	}
	// Equal quotas so the streams finish together: wall time then measures
	// the overlapped commit pipeline, not the largest ring partition.
	quotas := make([]int, instances)
	for w, assigned := 0, 0; assigned < b.N; w = (w + 1) % instances {
		if len(parts[w]) > 0 {
			quotas[w]++
			assigned++
		}
	}

	clients := make([]*cluster.Client, instances)
	errs := make([]error, instances)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < instances; w++ {
		if quotas[w] == 0 {
			continue
		}
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Targets: addrs, Route: cluster.RouteRing, BatchSize: 256,
		})
		if err != nil {
			b.Fatal(err)
		}
		clients[w] = cl
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := parts[w]
			for i := 0; i < quotas[w]; i++ {
				if err := clients[w].AddRecord(part[i%len(part)]); err != nil {
					errs[w] = err
					return
				}
			}
			errs[w] = clients[w].Close()
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")

	// Zero loss, zero forwards: the cluster accepted exactly what was sent,
	// and every aligned stream hit its owner directly.
	var accepted, forwarded uint64
	for _, srv := range srvs {
		accepted += srv.Aggregator().Snapshot().Accepted
	}
	for _, cl := range clients {
		if cl != nil {
			forwarded += cl.Stats().Forwarded
		}
	}
	if accepted != uint64(b.N) {
		b.Fatalf("cluster accepted %d of %d records", accepted, b.N)
	}
	if forwarded != 0 {
		b.Fatalf("aligned streams forwarded %d records, want 0", forwarded)
	}
}

// BenchmarkClusterIngest1 is the single-instance baseline for the cluster
// scaling comparison.
func BenchmarkClusterIngest1(b *testing.B) { benchClusterIngest(b, 1) }

// BenchmarkClusterIngest3 is the 3-instance cluster on the same workload;
// tools/benchjson reports its speedup over BenchmarkClusterIngest1.
func BenchmarkClusterIngest3(b *testing.B) { benchClusterIngest(b, 3) }

// BenchmarkWALAppend measures the durability substrate: records/sec through
// the write-ahead log at 1/64/512-record commit batches, with and without
// an fsync per commit. The nosync rows isolate the encoding+buffering cost;
// the fsync rows price the durability guarantee itself, and the batch sweep
// shows group commit amortising it.
func BenchmarkWALAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	payloads := make([][]byte, 512)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf(
			"anon-%08x,London,GB,starlink,14593,2022-04-11T09:00:00Z,site-%d.example,%d,true,%.3f,%.3f,Clear Sky,true,false,false\n",
			rng.Uint32(), rng.Intn(40), 1+rng.Intn(1000), 100+rng.Float64()*900, 500+rng.Float64()*2000))
	}
	for _, mode := range []struct {
		name  string
		fsync bool
	}{{"nosync", false}, {"fsync", true}} {
		for _, batch := range []int{1, 64, 512} {
			b.Run(fmt.Sprintf("%s/batch=%d", mode.name, batch), func(b *testing.B) {
				w, err := wal.Open(wal.Config{Dir: b.TempDir(), SegmentBytes: 256 << 20})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				var bytes int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := payloads[i%len(payloads)]
					bytes += int64(len(p))
					lsn, err := w.Append(1, p)
					if err != nil {
						b.Fatal(err)
					}
					if (i+1)%batch == 0 {
						if mode.fsync {
							if err := w.Commit(lsn); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				if mode.fsync {
					if err := w.Sync(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.SetBytes(bytes / int64(b.N))
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
				st := w.Stats()
				b.ReportMetric(float64(st.Syncs), "fsyncs")
			})
		}
	}
}

// BenchmarkNetsimEvents measures raw event-loop throughput.
func BenchmarkNetsimEvents(b *testing.B) {
	sim := netsim.NewSim(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Microsecond, func() {})
		if i%1024 == 0 {
			sim.Run()
		}
	}
	sim.Run()
}

// BenchmarkOrbitPropagation measures single-satellite position computation.
func BenchmarkOrbitPropagation(b *testing.B) {
	epoch := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	c, err := orbit.GenerateShell(orbit.ShellConfig{
		Name: "S", AltitudeKm: 550, InclinationDeg: 53,
		Planes: 4, SatsPerPlane: 4, Epoch: epoch, FirstSatNum: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sat := c.Sats[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat.PositionECEF(epoch.Add(time.Duration(i) * time.Second))
	}
}

// BenchmarkConstellationVisibility measures a full-shell visibility scan
// through the pruned engine (the default VisibleFrom path).
func BenchmarkConstellationVisibility(b *testing.B) {
	epoch := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	c, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		b.Fatal(err)
	}
	london := geo.LatLon{LatDeg: 51.5, LonDeg: -0.12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.VisibleFrom(london, epoch.Add(time.Duration(i)*time.Second))
	}
}

// BenchmarkConstellationVisibilityBrute is the pre-engine exhaustive scan on
// the same workload — the baseline tools/benchjson pairs with
// BenchmarkConstellationVisibility.
func BenchmarkConstellationVisibilityBrute(b *testing.B) {
	epoch := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	c, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		b.Fatal(err)
	}
	c.BruteForce = true
	london := geo.LatLon{LatDeg: 51.5, LonDeg: -0.12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.VisibleFrom(london, epoch.Add(time.Duration(i)*time.Second))
	}
}

// BenchmarkVisibleFromPruned measures the allocation-free hot path the bent
// pipe drives: pruned candidate search into a caller-owned buffer. The
// companion test TestVisibleFromAppendZeroAllocs pins allocs/op at zero.
func BenchmarkVisibleFromPruned(b *testing.B) {
	epoch := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	c, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		b.Fatal(err)
	}
	london := geo.LatLon{LatDeg: 51.5, LonDeg: -0.12}
	buf := c.VisibleFromAppend(london, epoch, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.VisibleFromAppend(london, epoch.Add(time.Duration(i)*time.Second), buf[:0])
	}
}

// BenchmarkServingSelection measures serving-satellite selection per policy
// through the scratch-buffer path the bent pipe uses every refresh tick.
func BenchmarkServingSelection(b *testing.B) {
	epoch := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	c, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		b.Fatal(err)
	}
	london := geo.LatLon{LatDeg: 51.5, LonDeg: -0.12}
	for _, policy := range []orbit.SelectionPolicy{orbit.HighestElevation, orbit.LongestRemainingVisibility} {
		b.Run(policy.String(), func(b *testing.B) {
			var scratch []orbit.Visible
			c.ServingInto(london, epoch, policy, &scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ServingInto(london, epoch.Add(time.Duration(i)*time.Second), policy, &scratch)
			}
		})
	}
}

// BenchmarkCCFlow measures one second of simulated bulk TCP per iteration.
func BenchmarkCCFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := netsim.NewSim(7)
		client := netsim.NewNode("c", "")
		server := netsim.NewNode("s", "")
		path, err := netsim.NewPath([]*netsim.Node{client, server},
			[]netsim.LinkSpec{{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 500000}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		f, err := cc.NewFlow(sim, path, cc.FlowConfig{Algorithm: cc.NewCubic()})
		if err != nil {
			b.Fatal(err)
		}
		f.Start()
		sim.RunUntil(time.Second)
		f.Stop()
	}
}

// BenchmarkPageLoad measures the analytic page-load model.
func BenchmarkPageLoad(b *testing.B) {
	list, err := tranco.NewList(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	site, err := list.Site(50)
	if err != nil {
		b.Fatal(err)
	}
	acc := webperf.Access{RTT: 30 * time.Millisecond, JitterMean: 8 * time.Millisecond, DownBps: 150e6, LossProb: 0.002}
	opts := webperf.Options{ClientLoc: geo.LatLon{LatDeg: 51.5}, CDNEdgeRTT: 4 * time.Millisecond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		webperf.LoadPage(rng, site, acc, opts)
	}
}

// BenchmarkTrancoSite measures deterministic site generation.
func BenchmarkTrancoSite(b *testing.B) {
	list, err := tranco.NewList(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := list.Site(1 + i%999999); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeedtest measures one multi-stream speedtest on a broadband path.
func BenchmarkSpeedtest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := netsim.NewSim(11)
		built, err := ispnet.Build(ispnet.Config{
			Kind: ispnet.Broadband, City: ispnet.London, Server: ispnet.LondonDC,
			Short: true, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.Speedtest(sim, built.Path, measure.SpeedtestOptions{PhaseDuration: 2 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability-plane benchmarks (make bench-obsplane) ---

// benchIngestRecords builds the synthetic record set BenchmarkCollectorIngest
// uses, so the shed-armed mirror below measures the identical workload.
func benchIngestRecords() []extension.Record {
	rng := rand.New(rand.NewSource(17))
	cities := []string{"London", "Seattle", "Sydney", "Berlin", "Warsaw", "Toronto"}
	isps := []string{"starlink", "broadband", "cellular"}
	recs := make([]extension.Record, 8192)
	for i := range recs {
		recs[i] = extension.Record{
			UserID: "anon-bench", City: cities[rng.Intn(len(cities))],
			Country: "GB", ISP: isps[rng.Intn(len(isps))], ASN: 14593,
			Domain: "site-" + string(rune('a'+rng.Intn(26))) + ".example",
			Rank:   1 + rng.Intn(1000),
			PTTMs:  100 + rng.Float64()*900, PLTMs: 500 + rng.Float64()*2000,
		}
	}
	return recs
}

// BenchmarkShedIdleIngest mirrors BenchmarkCollectorIngest with the
// admission controller armed but never tripping (the latency watermark is
// an hour; a quiet histogram can't reach it), pricing the per-record
// admission check — one atomic load. tools/benchjson emits the delta
// against BenchmarkCollectorIngest; the budget is <= 1%.
func BenchmarkShedIdleIngest(b *testing.B) {
	recs := benchIngestRecords()
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			agg := collector.NewAggregator(collector.Config{
				Shards: shards, QueueLen: 4096,
				Shed: collector.ShedConfig{AckLatencyP99: time.Hour},
			})
			var idx atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, ok := agg.Admit(false); ok {
						offerRecords(agg, trace.SpanContext{}, recs[int(idx.Add(1))%len(recs)])
					}
				}
			})
			b.StopTimer()
			agg.Close()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
			snap := agg.Snapshot()
			if snap.Processed != uint64(b.N) {
				b.Fatalf("processed %d != offered %d (idle shedder tripped?)", snap.Processed, b.N)
			}
		})
	}
}

// benchScrapeCluster starts k populated instances in a static-membership
// cluster and returns their advertise addresses (plus a stop func).
func benchScrapeCluster(b *testing.B, k int) ([]string, func()) {
	b.Helper()
	recs := benchIngestRecords()
	srvs := make([]*collector.Server, k)
	addrs := make([]string, k)
	for i := range srvs {
		srv, err := collector.OpenServer(collector.Config{Shards: 2, Registry: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	nodes := make([]*cluster.Node, k)
	for i := range srvs {
		n, err := cluster.NewNode(cluster.NodeConfig{Server: srvs[i], Self: addrs[i], Peers: addrs})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	for i, r := range recs {
		if offerRecords(srvs[i%k].Aggregator(), trace.SpanContext{}, r) != 1 {
			b.Fatalf("record %d rejected", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := range srvs {
		want := uint64(len(recs)/k + boolInt(i < len(recs)%k))
		for srvs[i].Aggregator().Snapshot().Processed != want {
			if time.Now().After(deadline) {
				b.Fatalf("instance %d never drained", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return addrs, func() {
		for i := range srvs {
			nodes[i].Close()
			_ = srvs[i].Shutdown(context.Background())
		}
	}
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func benchScrape(b *testing.B, url string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("scrape: status %d, err %v", resp.StatusCode, err)
		}
		if i == 0 {
			b.SetBytes(n)
		}
	}
}

// BenchmarkScrapeSingle prices one HTTP scrape of a populated instance's
// /metrics — the baseline for the federation overhead comparison.
func BenchmarkScrapeSingle(b *testing.B) {
	addrs, stop := benchScrapeCluster(b, 1)
	defer stop()
	benchScrape(b, "http://"+addrs[0]+collector.PathMetrics)
}

// BenchmarkScrapeFederated prices one federated /cluster/metrics scrape of
// a 3-instance cluster: the coordinator fans out to two peers, parses three
// expositions and merges them. tools/benchjson reports the latency multiple
// over BenchmarkScrapeSingle.
func BenchmarkScrapeFederated(b *testing.B) {
	addrs, stop := benchScrapeCluster(b, 3)
	defer stop()
	benchScrape(b, "http://"+addrs[0]+cluster.PathClusterMetrics)
}

// BenchmarkShedAdmit prices the armed-but-idle admission check in
// isolation — the only work the shed controller adds to an admitted
// request is this call: one atomic load. The committed budget number is
// this ns/op as a fraction of BenchmarkCollectorIngest/shards=4's
// per-record ns/op (the shed-admission-vs-ingest-record comparison in
// BENCH_obsplane.json): candidate/base must stay <= 1%. The end-to-end
// BenchmarkShedIdleIngest mirror cross-checks that the macro pair stays
// statistically flat, but that pair is consumer-bound and too noisy to
// resolve a sub-1% delta on its own.
func BenchmarkShedAdmit(b *testing.B) {
	agg := collector.NewAggregator(collector.Config{
		Shards: 1, QueueLen: 64,
		Shed: collector.ShedConfig{AckLatencyP99: time.Hour},
	})
	defer agg.Close()
	var shed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := agg.Admit(false); !ok {
				shed.Add(1)
			}
		}
	})
	if shed.Load() != 0 {
		b.Fatalf("idle controller shed %d requests", shed.Load())
	}
}
