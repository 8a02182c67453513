package bench

// End-to-end ingest benchmark: sustained records/sec from the campaign
// generator through a real HTTP client, the collector's ingest handler, and
// the write-ahead log, over the columnar batch wire at 1/4/8 shards.
//
// The workload is a real campaign chunk (so string repetition, weather
// skew, and float distributions match production traffic, where the
// dictionary and delta encodings earn their keep). Four concurrent client
// streams overlap the group-commit waits, so the measurement is the wire's
// per-record CPU — encode, HTTP framing, decode, WAL append — rather than
// fsync latency.
//
// `make bench-e2e` writes the rows as BENCH_e2e.json. Its committed copy
// still holds the batch-vs-CSV comparisons measured while the collector
// also took CSV rows.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
)

var (
	e2eOnce sync.Once
	e2eRecs []extension.Record
	e2eErr  error
)

// e2eWorkload generates one campaign chunk once and shares it across every
// e2e benchmark: ~15k records over 20 cities, both ISP classes, live
// weather.
func e2eWorkload(b *testing.B) []extension.Record {
	b.Helper()
	e2eOnce.Do(func() {
		cfg := core.SmallCampaign()
		cfg.Users = 4000
		cfg.Chunks = 1
		cfg.Workers = 4
		camp, err := core.NewCampaign(cfg)
		if err != nil {
			e2eErr = err
			return
		}
		e2eErr = camp.RunChunk(func(recs []extension.Record) error {
			e2eRecs = recs
			return nil
		})
	})
	if e2eErr != nil {
		b.Fatal(e2eErr)
	}
	if len(e2eRecs) == 0 {
		b.Fatal("campaign chunk produced no records")
	}
	return e2eRecs
}

func benchE2EIngest(b *testing.B, shards int) {
	recs := e2eWorkload(b)
	srv, err := collector.OpenServer(collector.Config{
		Shards: shards, QueueLen: 8192,
		Registry: obs.NewRegistry(),
		WAL: collector.WALConfig{
			Dir:            b.TempDir(),
			FsyncInterval:  2 * time.Millisecond,
			MaxSyncWindows: 4,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}()

	const streams = 4
	quotas := make([]int, streams)
	for i := 0; i < b.N; i++ {
		quotas[i%streams]++
	}
	errs := make([]error, streams)
	var wg sync.WaitGroup
	b.ResetTimer()
	for s := 0; s < streams; s++ {
		if quotas[s] == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client := collector.NewClient(srv.URL(), collector.ClientConfig{BatchSize: 1024, FlushEvery: 0})
			off := s * (len(recs) / streams)
			for i := 0; i < quotas[s]; i++ {
				if err := client.AddRecord(recs[(off+i)%len(recs)]); err != nil {
					errs[s] = err
					return
				}
			}
			errs[s] = client.Close()
		}(s)
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")

	if acc := srv.Aggregator().Snapshot().Accepted; acc != uint64(b.N) {
		b.Fatalf("server accepted %d of %d records", acc, b.N)
	}
}

// BenchmarkE2EIngestBatch sends records as struct-of-arrays frames; each
// frame is one WAL append.
func BenchmarkE2EIngestBatch(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchE2EIngest(b, shards)
		})
	}
}
