package bench

import (
	"fmt"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/tsdb"
)

// --- Embedded tsdb benchmarks (make bench-tsdb -> BENCH_tsdb.json) ---
//
// The budgets these rows are held to:
//
//   - tsdb-scrape-vs-ingest-record: one self-scrape tick, amortized over
//     the 100k records a collector ingests per nominal 1s scrape interval,
//     must cost <= 1% of one ingested record (candidate_ns_op /
//     base_ns_op vs BenchmarkCollectorIngest/shards=4).
//   - BenchmarkTSDBCompress's bytes/sample must stay <= 2 on the steady
//     counter workload (vs 16 bytes naive int64+float64).

// benchPopulatedRegistry builds a registry shaped like a live collector's:
// the full ingest metric families populated by real records, plus the Go
// runtime gauges — the series set a self-scrape tick walks.
func benchPopulatedRegistry(b *testing.B) *obs.Registry {
	b.Helper()
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	agg := collector.NewAggregator(collector.Config{Shards: 4, QueueLen: 4096, Registry: reg})
	b.Cleanup(func() { _ = agg.Close() })
	recs := benchIngestRecords()
	for _, r := range recs {
		if offerRecords(agg, trace.SpanContext{}, r) != 1 {
			b.Fatal("record rejected")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for agg.Snapshot().Processed != uint64(len(recs)) {
		if time.Now().After(deadline) {
			b.Fatal("aggregator never drained")
		}
		time.Sleep(time.Millisecond)
	}
	return reg
}

// BenchmarkTSDBAppend prices the store's per-sample append hot path:
// series lookup by rendered key, head append, periodic block seal.
func BenchmarkTSDBAppend(b *testing.B) {
	st := tsdb.NewStore(tsdb.StoreConfig{Retention: time.Hour})
	const series = 256
	keys := make([]string, series)
	for i := range keys {
		keys[i] = fmt.Sprintf(`{shard="%d"}`, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One scrape tick appends every series at the same timestamp;
		// advance the clock once per sweep.
		st.Append("bench_total", keys[i%series], int64(1e12)+int64(i/series)*1000, float64(i))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTSDBCompress prices sealing and reports the steady-state
// compression: a fixed-interval steady counter per series, measured as
// sealed bytes per appended sample against the 16-byte naive encoding.
func BenchmarkTSDBCompress(b *testing.B) {
	var bytesPerSample float64
	for i := 0; i < b.N; i++ {
		st := tsdb.NewStore(tsdb.StoreConfig{Retention: 24 * time.Hour, DisableCoarse: true})
		const samples = 12_000 // 100 sealed blocks of 120
		for j := 0; j < samples; j++ {
			st.Append("c_total", "", int64(1e12)+int64(j)*1000, float64(j)*500)
		}
		stats := st.Stats()
		bytesPerSample = float64(stats.SealedBytes) / float64(stats.TotalAppends)
	}
	b.ReportMetric(bytesPerSample, "bytes/sample")
	b.ReportMetric(16/bytesPerSample, "compression-vs-naive-x")
	if bytesPerSample > 2 {
		b.Fatalf("steady-counter compression %.3f bytes/sample, budget <= 2", bytesPerSample)
	}
}

// BenchmarkTSDBRangeQuery prices one dashboard-shaped query — a 5-minute
// reset-aware rate() over a counter — against a store holding an hour of
// 1s-resolution samples across 64 series.
func BenchmarkTSDBRangeQuery(b *testing.B) {
	st := tsdb.NewStore(tsdb.StoreConfig{Retention: 2 * time.Hour})
	const series, seconds = 64, 3600
	base := int64(1e12)
	for s := 0; s < seconds; s++ {
		for i := 0; i < series; i++ {
			st.Append("q_total", fmt.Sprintf(`{shard="%d"}`, i), base+int64(s)*1000, float64(s*100))
		}
	}
	from, to := base+int64(seconds-300)*1000, base+int64(seconds)*1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Rate("q_total", nil, from, to); !ok {
			b.Fatal("rate not ok")
		}
	}
}

// BenchmarkTSDBScrapeAmortized prices the self-scrape the way the <=1%
// budget is written: a collector ingesting 100k records/s with a 1s
// scrape interval pays one full tick (render, parse, append, prune) per
// 100k records, so each iteration is one record's amortized share —
// directly comparable to BenchmarkCollectorIngest/shards=4 ns/op.
func BenchmarkTSDBScrapeAmortized(b *testing.B) {
	reg := benchPopulatedRegistry(b)
	db, err := tsdb.Open(tsdb.Config{
		Source:         tsdb.RegistrySource(reg),
		ScrapeInterval: time.Hour, // ticks driven by hand
		Registry:       reg,
		Store:          tsdb.StoreConfig{Retention: time.Hour},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	const recordsPerScrape = 100_000
	tick := time.Now()
	db.Scrape(tick) // prime: the first tick creates every series
	scrapes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%recordsPerScrape == 0 {
			tick = tick.Add(time.Second)
			db.Scrape(tick)
			scrapes++
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(scrapes)*1e9, "ns/scrape")
	b.ReportMetric(float64(db.Store().Stats().Series), "series")
}
