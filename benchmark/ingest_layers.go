package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/trace"
	"starlinkview/internal/tsdb"
	"starlinkview/internal/wal"
)

// The staged pass walks the ingest path one layer at a time over the
// workload's own frames. A stage's ns-per-record is the process CPU of its
// timed sections ÷ records: the stage runs alone, so that CPU is the layer's,
// including the shard and commit goroutines it hands work to, and unlike
// wall time it adds up across layers that overlap in the real loop.
const (
	stageFrames = 512 // frames per stage: 0.5 Mi records
	stageChunk  = 64  // frames prepared, untimed, between timed sections
	stageCalls  = 30  // repetitions of a call reported as a median in ms
)

const stageRecords = stageFrames * frameRecords

// ingestLayers measures the layers both ingest workloads exercise. srv is
// the workload's live server, fsync the commit interval it runs.
func ingestLayers(e *env, tr *tracer, p *pool, srv *collector.Server, fsync time.Duration, vals map[string]float64) error {
	vals["core.campaign_records_per_s"] = p.genRate

	st := tr.stage("stage/dataset.encode")
	var enc dataset.BatchEncoder
	frameBytes := 0
	st.timed(func() {
		for i := 0; i < stageFrames; i++ {
			sp := tr.start("dataset.BatchEncoder.Encode", st.sp, int64(i))
			frameBytes += len(enc.Encode(p.frame(i % poolFrames)))
			sp.end()
		}
	})
	vals["dataset.encode_ns_per_record"] = perRecord(st.done(), stageRecords)
	vals["dataset.frame_b_per_record"] = float64(frameBytes) / stageRecords

	st = tr.stage("stage/dataset.view_parse")
	var views dataset.ViewPool
	var err error
	st.timed(func() {
		for i := 0; i < stageFrames && err == nil; i++ {
			sp := tr.start("dataset.ViewPool.Parse", st.sp, int64(i))
			var v *dataset.BatchView
			if v, err = views.Parse(p.frames[i%poolFrames]); err == nil {
				views.Put(v)
			}
			sp.end()
		}
	})
	if err != nil {
		return err
	}
	parse := perRecord(st.done(), stageRecords)
	vals["dataset.view_parse_ns_per_record"] = parse

	plain := e.collectorConfig(fsync, 0)
	plain.WAL = collector.WALConfig{}
	offer, err := offerViewStage(tr, "collector.offer_view", plain, p)
	if err != nil {
		return err
	}
	vals["collector.offer_view_ns_per_record"] = offer
	offerWAL, err := offerViewStage(tr, "collector.offer_view_wal", e.collectorConfig(fsync, 0), p)
	if err != nil {
		return err
	}
	vals["collector.offer_view_wal_ns_per_record"] = offerWAL

	// The whole server path over one connection; what it costs beyond the
	// parse and the durable offer measured above is HTTP's share.
	st = tr.stage("stage/collector.http_ingest")
	hc := oneConnClient()
	defer hc.CloseIdleConnections()
	st.timed(func() {
		for i := 0; i < stageFrames && err == nil; i++ {
			sp := tr.start("POST /ingest/batch", st.sp, int64(i))
			err = httpDo(hc, http.MethodPost, srv.URL()+collector.PathIngestBatch, collector.BatchContentType, p.frames[i%poolFrames])
			sp.end()
		}
		if err == nil {
			err = drained(srv.Aggregator())
		}
	})
	if err != nil {
		return err
	}
	post := perRecord(st.done(), stageRecords)
	vals["collector.http_ingest_ns_per_record"] = post - parse - offerWAL

	if err := walStages(e, tr, p, fsync, vals); err != nil {
		return err
	}

	reg := srv.Aggregator().Registry()
	vals["obs.gather_ms"], err = repeatMs(tr, "obs.Registry.WritePrometheus", stageCalls, func() error {
		return reg.WritePrometheus(io.Discard)
	})
	if err != nil {
		return err
	}
	// The scrape loop is parked (one tick an hour); each tick is driven by
	// hand, a simulated second apart.
	db, err := tsdb.Open(tsdb.Config{Source: tsdb.RegistrySource(reg), ScrapeInterval: time.Hour, Registry: reg})
	if err != nil {
		return err
	}
	defer db.Close()
	now := time.Now()
	tick := 0
	vals["tsdb.scrape_ms"], err = repeatMs(tr, "tsdb.DB.Scrape", stageCalls, func() error {
		tick++
		db.Scrape(now.Add(time.Duration(tick) * time.Second))
		return nil
	})
	return err
}

// offerViewStage offers parsed views to a fresh aggregator with cfg, chunk
// by chunk: the parse is prepared untimed, the offers, the commit (with a
// WAL) and the shards' applies are timed. One warm-up chunk creates the
// groups and fills the pools first.
func offerViewStage(tr *tracer, name string, cfg collector.Config, p *pool) (float64, error) {
	agg, err := collector.OpenAggregator(cfg)
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = agg.Close()
		if cfg.WAL.Dir != "" {
			_ = os.RemoveAll(cfg.WAL.Dir)
		}
	}()
	var views dataset.ViewPool
	batch := make([]*dataset.BatchView, 0, stageChunk)
	st := tr.stage("stage/" + name)
	for done := -stageChunk; done < stageFrames; done += stageChunk {
		batch = batch[:0]
		for i := 0; i < stageChunk; i++ {
			v, err := views.Parse(p.frames[i%poolFrames])
			if err != nil {
				return 0, err
			}
			batch = append(batch, v)
		}
		offerAll := func() {
			for i, v := range batch {
				sp := tr.start("collector.Aggregator.OfferBatchView", st.sp, int64(done+i))
				if acc, drop := agg.OfferBatchView(v, trace.SpanContext{}); acc != frameRecords || drop != 0 {
					err = fmt.Errorf("%s: accepted %d, dropped %d", name, acc, drop)
				}
				sp.end()
			}
			if err == nil {
				err = agg.SyncWAL()
			}
			if err == nil {
				err = drained(agg)
			}
		}
		if done < 0 {
			offerAll() // warm-up chunk, untimed
		} else {
			st.timed(offerAll)
		}
		if err != nil {
			return 0, err
		}
	}
	return perRecord(st.done(), stageRecords), nil
}

// walStages drives a wal.Writer directly with the workload's frames and
// flush policy: the append alone, then append+commit for the wait an ack
// pays.
func walStages(e *env, tr *tracer, p *pool, fsync time.Duration, vals map[string]float64) error {
	dir := e.walDir()
	w, err := wal.Open(wal.Config{Dir: dir, FsyncInterval: fsync, MaxSyncWindows: maxSyncWindows, FS: e.fs})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := tr.stage("stage/wal.append")
	st.timed(func() {
		for i := 0; i < stageFrames && err == nil; i++ {
			sp := tr.start("wal.Writer.Append", st.sp, int64(i))
			_, err = w.Append(collector.WALKindExtensionBatch, p.frames[i%poolFrames])
			sp.end()
		}
	})
	vals["wal.append_ns_per_frame"] = float64(st.done().cpu) / stageFrames
	if err == nil {
		err = w.Sync()
	}
	var waits []float64
	root := tr.start("stage/wal.commit", noParent, 0)
	for i := 0; i < stageFrames && err == nil; i++ {
		var lsn uint64
		if lsn, err = w.Append(collector.WALKindExtensionBatch, p.frames[i%poolFrames]); err != nil {
			break
		}
		sp := tr.start("wal.Writer.Commit", root, int64(i))
		start := time.Now()
		err = w.Commit(lsn)
		waits = append(waits, float64(time.Since(start))/1e6)
		sp.end()
	}
	root.end()
	vals["wal.commit_wait_p50_ms"] = median(waits)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *ingestClosed) layers(tr *tracer, p *phase) (map[string]float64, error) {
	vals := map[string]float64{}
	loadgenMetrics(p, vals)
	deviceMetrics(p, p.attempted, vals)
	if err := ingestLayers(w.e, tr, w.pool, w.srv, 0, vals); err != nil {
		return nil, err
	}
	// The components-sum-to-the-whole check: client encode plus the whole
	// server path, measured one at a time, against the loop's CPU per record.
	whole := median(p.cpuNs)
	layers := vals["dataset.encode_ns_per_record"] + vals["dataset.view_parse_ns_per_record"] +
		vals["collector.offer_view_wal_ns_per_record"] + vals["collector.http_ingest_ns_per_record"]
	vals["bench.unattributed_ratio"] = 1 - layers/whole
	return vals, nil
}

// readStageFor is how long the reads-under-ingest stage runs.
const readStageFor = 4 * time.Second

func (w *ingestOpen) layers(tr *tracer, p *phase) (map[string]float64, error) {
	vals := map[string]float64{}
	loadgenMetrics(p, vals)
	deviceMetrics(p, int64(len(p.lateMs)), vals)
	if err := ingestLayers(w.e, tr, w.pool, w.srv, groupCommit, vals); err != nil {
		return nil, err
	}
	agg := w.srv.Aggregator()
	var err error
	var snap *collector.Snapshot
	vals["collector.snapshot_ms"], err = repeatMs(tr, "collector.Aggregator.Snapshot", stageCalls, func() error {
		snap = agg.Snapshot()
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["collector.snapshot_render_ms"], err = repeatMs(tr, "collector.Snapshot.CityTableJSON", stageCalls, func() error {
		snap.CityTableJSON()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reads under ingest: one connection keeps the write schedule, the other
	// reads back to back, which gives a read's p90 the hundred samples it
	// needs (the loop's own ten reads a second give a median only).
	var reads []float64
	var readErr error
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := tr.start("GET /snapshot", noParent, i)
			start := time.Now()
			if _, err := w.do(1%w.e.streams, schedOp{read: true}, sp); err != nil {
				readErr = err
				sp.end()
				return
			}
			reads = append(reads, float64(time.Since(start))/1e6)
			sp.end()
		}
	}()
	writes := openLoop(1, schedule(readStageFor, openWriteRate, 0, w.e.seed), readStageFor, openLimit, nil, w.do)
	close(stop)
	wg.Wait()
	if readErr != nil {
		return nil, readErr
	}
	if writes.failed > 0 {
		return nil, writes.firstErr
	}
	vals["collector.snapshot_read_p50_ms"] = median(reads)
	vals["collector.snapshot_read_p90_ms"], _ = tailPercentile(reads, 0.90)
	fmt.Printf("reads under ingest: %d samples beside %d writes\n", len(reads), writes.attempted)

	before := w.e.fs.Counts()
	const checkpoints = 5
	vals["collector.checkpoint_ms"], err = repeatMs(tr, "collector.Aggregator.Checkpoint", checkpoints, agg.Checkpoint)
	if err != nil {
		return nil, err
	}
	vals["collector.checkpoint_b"] = float64(w.e.fs.Counts().Sub(before).Bytes) / checkpoints
	return vals, nil
}
