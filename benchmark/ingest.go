package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/obs"
)

// The flush policy, identical on every run and stated in BENCHMARK.json's
// workload rationale: up to 4 fsync windows in flight, a checkpoint (and
// prune of covered segments) every 2 s, and an fsync interval that depends
// on the loop. The open loop runs the 2 ms group commit, whose tick wait is
// most of an ack and the thing that workload measures. The closed loops
// commit per ack: two synchronous streams against a 2 ms tick lock to it
// (measured 0.85–0.90 M records/s with 1.15 of 2 cores busy, whatever the
// code does in its 0.6 ms of work per op), and a saturation number that is
// really a timer's would hide every change it exists to show.
const (
	// groupCommit is ingest_open_reads' fsync interval; the closed loops
	// commit per ack (interval 0), see collectorConfig.
	groupCommit        = 2 * time.Millisecond
	maxSyncWindows     = 4
	checkpointInterval = 2 * time.Second
	collectorShards    = 4
	collectorQueueLen  = 8192
)

// collectorConfig is the durable collector every ingest workload runs: WAL
// on the counted device, the flush policy above.
func (e *env) collectorConfig(fsyncInterval, ckpt time.Duration) collector.Config {
	return collector.Config{
		Shards: collectorShards, QueueLen: collectorQueueLen,
		Registry: obs.NewRegistry(),
		WAL: collector.WALConfig{
			Dir:                e.walDir(),
			FsyncInterval:      fsyncInterval,
			MaxSyncWindows:     maxSyncWindows,
			CheckpointInterval: ckpt,
			FS:                 e.fs,
		},
	}
}

func startCollector(cfg collector.Config) (*collector.Server, error) {
	srv, err := collector.OpenServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		_ = srv.Aggregator().Close()
		return nil, err
	}
	return srv, nil
}

// oneConnClient is an HTTP client that keeps a single connection: one per
// generator stream, so connections never outnumber streams.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			IdleConnTimeout: time.Minute,
		},
	}
}

// drained waits until the aggregator has applied everything it accepted.
func drained(agg *collector.Aggregator) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := agg.Stats()
		if st.Processed == st.Accepted {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("aggregator did not drain: accepted %d, processed %d", st.Accepted, st.Processed)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkCounts is the output check shared by the ingest workloads: the
// server accepted exactly what was sent, dropped nothing, and its per-group
// counts are the sent multiset's.
func checkCounts(agg *collector.Aggregator, want tally) error {
	if err := drained(agg); err != nil {
		return err
	}
	var sent uint64
	for _, n := range want {
		sent += n
	}
	snap := agg.Snapshot()
	if snap.Accepted != sent || snap.Dropped != 0 {
		return fmt.Errorf("sent %d records, server accepted %d and dropped %d", sent, snap.Accepted, snap.Dropped)
	}
	if len(snap.Groups) != len(want) {
		return fmt.Errorf("server holds %d groups, sent %d", len(snap.Groups), len(want))
	}
	for _, g := range snap.Groups {
		if n := want[groupKey{g.City, g.ISP}]; g.Count != n {
			return fmt.Errorf("group %s/%s: server counts %d, sent %d", g.City, g.ISP, g.Count, n)
		}
	}
	return nil
}

// --- ingest_closed ------------------------------------------------------

// closedWarmOps is the set-up's fixed-work warm-up per stream, about a tenth
// of what a stream sends in the timed phase: connections open, the intern
// table, view pool and WAL buffers are at steady state before timing.
const closedWarmOps = 1000

type ingestClosed struct {
	e       *env
	pool    *pool
	srv     *collector.Server
	https   []*http.Client
	clients []*collector.Client
	sent    []uint64 // records each stream has added, warm-up included
}

func setupIngestClosed(e *env) (instance, error) {
	p, err := e.newPool(20)
	if err != nil {
		return nil, err
	}
	srv, err := startCollector(e.collectorConfig(0, checkpointInterval))
	if err != nil {
		return nil, err
	}
	w := &ingestClosed{e: e, pool: p, srv: srv, sent: make([]uint64, e.streams)}
	for s := 0; s < e.streams; s++ {
		hc := oneConnClient()
		w.https = append(w.https, hc)
		w.clients = append(w.clients, collector.NewClient(srv.URL(), collector.ClientConfig{
			Wire: collector.WireBatch, BatchSize: frameRecords, FlushEvery: 0, HTTPClient: hc,
		}))
	}
	if err := fixedLoop(e.streams, closedWarmOps, w.op); err != nil {
		_ = w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// op adds one frame's worth of records through the real client; the last
// AddRecord encodes the frame, POSTs it and returns on the server's ack.
func (w *ingestClosed) op(s int, _ spanRef) (int, error) {
	recs := w.pool.stream(s, w.e.streams)
	c := w.clients[s]
	for i := 0; i < frameRecords; i++ {
		if err := c.AddRecord(recs[w.sent[s]%uint64(len(recs))]); err != nil {
			return 0, err
		}
		w.sent[s]++
	}
	return frameRecords, nil
}

func (w *ingestClosed) run(d time.Duration, tr *tracer) (*phase, error) {
	return closedLoop(w.e.streams, d, tr, w.op), nil
}

func (w *ingestClosed) verify(*phase) error {
	want := tally{}
	for s, n := range w.sent {
		want.addCyclic(w.pool.stream(s, w.e.streams), n)
	}
	return checkCounts(w.srv.Aggregator(), want)
}

func (w *ingestClosed) close() error {
	for _, c := range w.clients {
		_ = c.Close() // buffers are empty: every op ends on a flush
	}
	for _, hc := range w.https {
		hc.CloseIdleConnections()
	}
	return w.srv.Shutdown(context.Background())
}

// --- ingest_open_reads --------------------------------------------------

const (
	openWriteRate = 200 // frame POSTs per second: 204 800 records/s
	openReadRate  = 10  // GET /snapshot per second
	openLimit     = 50 * time.Millisecond
	openCities    = 400
	// openWarmOps is the set-up's warm-up: three tenths of a 15 s schedule, sent
	// back to back. It also populates all 800 groups before timing.
	openWarmOps = 900
)

type ingestOpen struct {
	e     *env
	pool  *pool
	srv   *collector.Server
	https []*http.Client
	sent  []uint64 // POSTs per pool frame, warm-up included
	next  []int    // per worker: the next pool frame it sends
}

func setupIngestOpen(e *env) (instance, error) {
	p, err := e.newPool(openCities)
	if err != nil {
		return nil, err
	}
	srv, err := startCollector(e.collectorConfig(groupCommit, checkpointInterval))
	if err != nil {
		return nil, err
	}
	w := &ingestOpen{e: e, pool: p, srv: srv, sent: make([]uint64, len(p.frames)), next: make([]int, e.streams)}
	for s := 0; s < e.streams; s++ {
		w.https = append(w.https, oneConnClient())
		w.next[s] = s
	}
	warm := func(s int, sp spanRef) (int, error) { return w.do(s, schedOp{}, sp) }
	if err := fixedLoop(e.streams, openWarmOps/e.streams, warm); err != nil {
		_ = w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// do sends worker s's next pre-encoded frame, or reads the snapshot. Workers
// stride the pool (s, s+streams, ...) so the per-frame counts need no lock.
func (w *ingestOpen) do(s int, op schedOp, _ spanRef) (int, error) {
	hc := w.https[s]
	if op.read {
		return 0, httpDo(hc, http.MethodGet, w.srv.URL()+collector.PathSnapshot, "", nil)
	}
	f := w.next[s]
	w.next[s] = (f + w.e.streams) % len(w.pool.frames)
	err := httpDo(hc, http.MethodPost, w.srv.URL()+collector.PathIngestBatch, collector.BatchContentType, w.pool.frames[f])
	if err != nil {
		return 0, err
	}
	w.sent[f]++
	return frameRecords, nil
}

// httpDo performs one request and drains the reply so the connection is
// reused; any status but 200 is an error.
func httpDo(hc *http.Client, method, url, contentType string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (w *ingestOpen) run(d time.Duration, tr *tracer) (*phase, error) {
	return openLoop(w.e.streams, schedule(d, openWriteRate, openReadRate, w.e.seed), d, openLimit, tr, w.do), nil
}

func (w *ingestOpen) verify(*phase) error {
	want := tally{}
	for f, n := range w.sent {
		want.addRecords(w.pool.frame(f), n)
	}
	return checkCounts(w.srv.Aggregator(), want)
}

func (w *ingestOpen) close() error {
	for _, hc := range w.https {
		hc.CloseIdleConnections()
	}
	return w.srv.Shutdown(context.Background())
}
