package collector

import (
	"context"
	"math"
	"testing"
	"time"

	"starlinkview/internal/core"
	"starlinkview/internal/extension"
	"starlinkview/internal/stats"
)

// TestStreamedMatchesBatchAggregation is the subsystem's contract: a full
// generated browsing campaign, streamed record-by-record through the
// collector's wire protocol as it is collected, must drain to the same
// per-city aggregates the batch pipeline computes — counts and distinct
// domains exactly, median PTTs within the quantile sketch's error bound.
func TestStreamedMatchesBatchAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign stream")
	}
	const relErr = 0.01
	srv := NewServer(Config{Shards: 4, QueueLen: 512, SketchRelErr: relErr})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.URL(), ClientConfig{BatchSize: 256, FlushEvery: 50 * time.Millisecond})

	cfg := core.QuickConfig()
	cfg.BrowsingDays = 14
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The streaming hook ships each record the moment the extension
	// pipeline collects it — the path a deployed extension would use.
	var streamErr error
	study.Collector.OnRecord = func(r extension.Record) {
		if err := client.AddRecord(r); err != nil && streamErr == nil {
			streamErr = err
		}
	}
	if err := study.RunBrowsing(); err != nil {
		t.Fatal(err)
	}
	if streamErr != nil {
		t.Fatal(streamErr)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	records := study.Collector.Records()
	if len(records) == 0 {
		t.Fatal("campaign produced no records")
	}
	snap := srv.Aggregator().Snapshot()
	if snap.Processed != uint64(len(records)) || snap.Dropped != 0 {
		t.Fatalf("streamed %d records, server processed %d (dropped %d)",
			len(records), snap.Processed, snap.Dropped)
	}

	cities := study.Collector.Cities()
	gotCities := snap.Cities()
	if len(gotCities) != len(cities) {
		t.Fatalf("streamed cities %v != batch cities %v", gotCities, cities)
	}
	batch := study.Collector.CityTable(cities)
	streamed := snap.CityTable(cities)
	for i, want := range batch {
		got := streamed[i]
		if got.City != want.City {
			t.Fatalf("row %d city %q != %q", i, got.City, want.City)
		}
		// Counts and domain sets must match exactly.
		if got.StarlinkReqs != want.StarlinkReqs || got.NonSLReqs != want.NonSLReqs {
			t.Errorf("%s: reqs SL=%d/%d nonSL=%d/%d (streamed/batch)",
				want.City, got.StarlinkReqs, want.StarlinkReqs, got.NonSLReqs, want.NonSLReqs)
		}
		if got.StarlinkDomains != want.StarlinkDomains || got.NonSLDomains != want.NonSLDomains {
			t.Errorf("%s: domains SL=%d/%d nonSL=%d/%d (streamed/batch)",
				want.City, got.StarlinkDomains, want.StarlinkDomains, got.NonSLDomains, want.NonSLDomains)
		}
		// Medians converge within the sketch bound (doubled for headroom:
		// interpolation spans two buckets, each within the bound).
		checkMedian(t, want.City+" starlink", got.StarlinkMedianPTT, want.StarlinkMedianPTT, 2*relErr)
		checkMedian(t, want.City+" non-SL", got.NonSLMedianPTT, want.NonSLMedianPTT, 2*relErr)
	}
}

// TestRestartRecoversStreamedCampaign is the durability contract end to
// end: half the campaign streams into a WAL-enabled server, the server
// shuts down (as on SIGTERM), a fresh server recovers from the same WAL
// directory, the rest streams in — and the final /snapshot city table must
// still match the batch pipeline as if nothing had been interrupted.
func TestRestartRecoversStreamedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign stream with restart")
	}
	const relErr = 0.01
	walDir := t.TempDir()
	// Servers a failed check leaves running are shut down at cleanup, so
	// they cannot skew the package's later allocation gates.
	open := map[*Server]bool{}
	stop := func(srv *Server) error {
		delete(open, srv)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	t.Cleanup(func() {
		for srv := range open {
			if err := stop(srv); err != nil {
				t.Error(err)
			}
		}
	})
	newSrv := func() *Server {
		srv, err := OpenServer(Config{
			Shards: 4, QueueLen: 512, SketchRelErr: relErr,
			WAL: WALConfig{
				Dir:                walDir,
				FsyncInterval:      time.Millisecond,
				SegmentBytes:       1 << 20,
				CheckpointInterval: 50 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		open[srv] = true
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	shutdown := func(srv *Server) {
		if err := stop(srv); err != nil {
			t.Fatal(err)
		}
	}
	stream := func(srv *Server, records []extension.Record) {
		client := NewClient(srv.URL(), ClientConfig{BatchSize: 256, FlushEvery: 50 * time.Millisecond})
		for _, r := range records {
			if err := client.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cfg := core.QuickConfig()
	cfg.BrowsingDays = 14
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.RunBrowsing(); err != nil {
		t.Fatal(err)
	}
	records := study.Collector.Records()
	if len(records) < 2 {
		t.Fatal("campaign produced too few records")
	}
	half := len(records) / 2

	// Session 1: first half.
	srv1 := newSrv()
	stream(srv1, records[:half])
	shutdown(srv1)

	// Session 2: recover from the WAL directory and stream the rest.
	srv2 := newSrv()
	rec := srv2.Aggregator().WALRecovery()
	if got := rec.RestoredRecords + rec.ReplayedRecords; got != uint64(half) {
		t.Fatalf("recovery rebuilt %d records (restored %d, replayed %d), want %d",
			got, rec.RestoredRecords, rec.ReplayedRecords, half)
	}
	if rec.SkippedCorrupt != 0 {
		t.Fatalf("recovery skipped %d records after a clean shutdown", rec.SkippedCorrupt)
	}
	stream(srv2, records[half:])
	shutdown(srv2)

	snap := srv2.Aggregator().Snapshot()
	if snap.Processed != uint64(len(records)) || snap.Dropped != 0 {
		t.Fatalf("processed %d records (dropped %d), want %d",
			snap.Processed, snap.Dropped, len(records))
	}

	cities := study.Collector.Cities()
	batch := study.Collector.CityTable(cities)
	streamed := snap.CityTable(cities)
	for i, want := range batch {
		got := streamed[i]
		if got.City != want.City {
			t.Fatalf("row %d city %q != %q", i, got.City, want.City)
		}
		if got.StarlinkReqs != want.StarlinkReqs || got.NonSLReqs != want.NonSLReqs {
			t.Errorf("%s: reqs SL=%d/%d nonSL=%d/%d (restarted/batch)",
				want.City, got.StarlinkReqs, want.StarlinkReqs, got.NonSLReqs, want.NonSLReqs)
		}
		if got.StarlinkDomains != want.StarlinkDomains || got.NonSLDomains != want.NonSLDomains {
			t.Errorf("%s: domains SL=%d/%d nonSL=%d/%d (restarted/batch)",
				want.City, got.StarlinkDomains, want.StarlinkDomains, got.NonSLDomains, want.NonSLDomains)
		}
		checkMedian(t, want.City+" starlink", got.StarlinkMedianPTT, want.StarlinkMedianPTT, 2*relErr)
		checkMedian(t, want.City+" non-SL", got.NonSLMedianPTT, want.NonSLMedianPTT, 2*relErr)
	}

	// Session 3: a pure restart with no new traffic restores everything
	// from the final checkpoint alone — nothing left to replay.
	srv3 := newSrv()
	rec = srv3.Aggregator().WALRecovery()
	if rec.ReplayedRecords != 0 || rec.RestoredRecords != uint64(len(records)) {
		t.Fatalf("post-shutdown recovery: restored %d replayed %d, want all %d from checkpoint",
			rec.RestoredRecords, rec.ReplayedRecords, len(records))
	}
	shutdown(srv3)
}

func checkMedian(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Errorf("%s: streamed median %v, batch has no samples", label, got)
		}
		return
	}
	if math.Abs(got-want) > tol*want+1e-9 {
		t.Errorf("%s: streamed median %.3f vs batch %.3f (err %.4f > tol %.4f)",
			label, got, want, math.Abs(got-want)/want, tol)
	}
}

// TestSketchMatchesBatchQuantiles pins the convergence at the stats layer
// too: the same PTT samples, batch-quantiled and sketch-quantiled.
func TestSketchMatchesBatchQuantiles(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.BrowsingDays = 7
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.RunBrowsing(); err != nil {
		t.Fatal(err)
	}
	ptts := study.Collector.PTTSamples(func(r extension.Record) bool { return true })
	sk, err := stats.NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ptts {
		sk.Add(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.95} {
		want := stats.Quantile(ptts, q)
		got := sk.Quantile(q)
		if math.Abs(got-want) > 0.02*want {
			t.Fatalf("q=%v: sketch %v vs batch %v", q, got, want)
		}
	}
}
