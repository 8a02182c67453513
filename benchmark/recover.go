package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/trace"
)

const (
	// recoverFrames is the log the cold start replays: 1024 frames of 1024
	// records, 1 Mi records and ≈35 MB of WAL. One recovery is ≈0.7 s of
	// replay; with the untimed copy, check and close around it an op is about
	// a second, so a 15 s phase holds fifteen.
	recoverFrames    = 1024
	recoverNominalOp = time.Second
)

type recoverCold struct {
	e        *env
	template string // a synced WAL directory with no checkpoint
	wantJSON []byte // the snapshot the log was built to
	records  int64
}

// snapshotJSON is the part of a snapshot that is a pure function of the
// records applied (the per-shard queue-latency statistics are not).
func snapshotJSON(s *collector.Snapshot) ([]byte, error) {
	return json.Marshal(struct {
		Accepted  uint64               `json:"accepted"`
		Groups    []collector.GroupRow `json:"groups"`
		CityTable []collector.CityJSON `json:"city_table"`
	}{s.Accepted, s.Groups, s.CityTableJSON()})
}

func setupRecoverCold(e *env) (instance, error) {
	p, err := e.newPool(20)
	if err != nil {
		return nil, err
	}
	w := &recoverCold{e: e, template: e.walDir(), records: recoverFrames * frameRecords}
	if err := w.buildLog(p); err != nil {
		return nil, fmt.Errorf("build log: %w", err)
	}
	// One untimed recovery: page cache, heap and intern tables as the timed
	// ops will find them.
	if _, err := w.op(&meter{}, noParent, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// buildLog writes the frames through the view fast path with no checkpoint
// and one final sync, saves the snapshot, and keeps a copy of the directory
// taken before Close (whose final checkpoint would make recovery a no-op).
func (w *recoverCold) buildLog(p *pool) error {
	cfg := w.e.collectorConfig(0, 0)
	agg, err := collector.OpenAggregator(cfg)
	if err != nil {
		return err
	}
	var views dataset.ViewPool
	for i := 0; i < recoverFrames; i++ {
		v, err := views.Parse(p.frames[i%len(p.frames)])
		if err != nil {
			_ = agg.Close()
			return err
		}
		if acc, drop := agg.OfferBatchView(v, trace.SpanContext{}); acc != frameRecords || drop != 0 {
			_ = agg.Close()
			return fmt.Errorf("frame %d: accepted %d, dropped %d", i, acc, drop)
		}
	}
	err = agg.SyncWAL()
	if err == nil {
		err = drained(agg)
	}
	if err == nil {
		w.wantJSON, err = snapshotJSON(agg.Snapshot())
	}
	if err == nil {
		err = copyDir(cfg.WAL.Dir, w.template)
	}
	if cerr := agg.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(cfg.WAL.Dir); err == nil {
		err = rerr
	}
	return err
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if err := copyFile(filepath.Join(from, ent.Name()), filepath.Join(to, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// op is one cold start on a fresh copy of the log: open the aggregator
// (which replays to ready) and take the first snapshot. Only that is timed
// and metered; the copy before and the check and close after are not.
func (w *recoverCold) op(m *meter, sp spanRef, tr *tracer) (int64, error) {
	cfg := w.e.collectorConfig(0, 0)
	if err := copyDir(w.template, cfg.WAL.Dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(cfg.WAL.Dir)
	m.begin()
	open := tr.start("collector.recover_ready", sp, 0)
	agg, err := collector.OpenAggregator(cfg)
	open.end()
	if err != nil {
		return 0, err
	}
	first := tr.start("collector.snapshot", sp, 0)
	snap := agg.Snapshot()
	first.end()
	m.end()
	got, err := snapshotJSON(snap)
	if cerr := agg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if rec := agg.WALRecovery(); rec.ReplayedRecords != uint64(w.records) || rec.SkippedCorrupt != 0 {
		return 0, fmt.Errorf("recovery replayed %d records (skipped %d frames), log holds %d",
			rec.ReplayedRecords, rec.SkippedCorrupt, w.records)
	}
	if !bytes.Equal(got, w.wantJSON) {
		return 0, fmt.Errorf("recovered snapshot differs from the one saved at log build (%d vs %d bytes)", len(got), len(w.wantJSON))
	}
	return w.records, nil
}

func (w *recoverCold) run(d time.Duration, tr *tracer) (*phase, error) {
	return fixedWork(fixedOps(d, recoverNominalOp), tr, w.op), nil
}

// verify has nothing left to do: every op compared its snapshot and replay
// count, and a mismatch failed that op.
func (w *recoverCold) verify(p *phase) error {
	if p.failed > 0 {
		return p.firstErr
	}
	return nil
}

func (w *recoverCold) close() error { return os.RemoveAll(w.template) }
