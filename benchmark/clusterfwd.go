package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

const (
	clusterInstances = 3
	// clusterWarmOps is the set-up's warm-up per stream, in client flushes:
	// about a tenth of a timed phase.
	clusterWarmOps = 150
)

type clusterForward struct {
	e       *env
	pool    *pool
	srvs    []*collector.Server
	nodes   []*cluster.Node
	addrs   []string
	https   []*http.Client
	clients []*cluster.Client
	sent    []uint64 // records each stream has added, warm-up included
}

func setupClusterForward(e *env) (instance, error) {
	p, err := e.newPool(20)
	if err != nil {
		return nil, err
	}
	w := &clusterForward{e: e, pool: p, sent: make([]uint64, e.streams)}
	for i := 0; i < clusterInstances; i++ {
		srv, err := startCollector(e.collectorConfig(0, checkpointInterval))
		if err != nil {
			_ = w.close()
			return nil, err
		}
		w.srvs = append(w.srvs, srv)
		w.addrs = append(w.addrs, srv.Addr())
	}
	for i, srv := range w.srvs {
		n, err := cluster.NewNode(cluster.NodeConfig{Server: srv, Self: w.addrs[i], Peers: w.addrs})
		if err != nil {
			_ = w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, n)
	}
	for s := 0; s < e.streams; s++ {
		// One synchronous stream: a single request in flight, over one kept
		// connection per instance.
		hc := oneConnClient()
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Targets: w.addrs, Route: cluster.RouteRR, Wire: collector.WireBatch,
			BatchSize: frameRecords, HTTPClient: hc,
		})
		if err != nil {
			_ = w.close()
			return nil, err
		}
		w.https = append(w.https, hc)
		w.clients = append(w.clients, cl)
	}
	if err := fixedLoop(e.streams, clusterWarmOps, w.op); err != nil {
		_ = w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// op adds records until the client flushes one buffer: the round-robin
// client sprays records over the three instances, so two thirds of every
// flushed frame belong elsewhere and are forwarded before the ack.
func (w *clusterForward) op(s int, _ spanRef) (int, error) {
	recs := w.pool.stream(s, w.e.streams)
	c := w.clients[s]
	before := c.Stats().Batches
	n := 0
	for c.Stats().Batches == before {
		if err := c.AddRecord(recs[w.sent[s]%uint64(len(recs))]); err != nil {
			return 0, err
		}
		w.sent[s]++
		n++
	}
	return n, nil
}

func (w *clusterForward) run(d time.Duration, tr *tracer) (*phase, error) {
	p := closedLoop(w.e.streams, d, tr, w.op)
	for _, c := range w.clients {
		p.retried += int64(c.Stats().Retries + c.Stats().Paced)
	}
	return p, nil
}

// reference is the state a single instance would hold had it ingested what
// stream s sent: the stream's slice of the pool, whole, as many times as it
// was cycled, plus the prefix of the unfinished cycle. Sketch merges are
// exact bucket additions, so folding the one-cycle state `cycles` times is
// the same state as ingesting the cycle that often.
func (w *clusterForward) reference(s int) ([]collector.MergeState, error) {
	recs := w.pool.stream(s, w.e.streams)
	cycles, rem := w.sent[s]/uint64(len(recs)), w.sent[s]%uint64(len(recs))
	// Both parts go through the wire encoding: the wire rounds PTT to a
	// thousandth of a millisecond, and the reference must hold what the
	// servers were sent, not what the campaign drew.
	whole, err := stateOf(recs)
	if err != nil {
		return nil, err
	}
	part, err := stateOf(recs[:rem])
	if err != nil {
		return nil, err
	}
	states := []collector.MergeState{part}
	for i := uint64(0); i < cycles; i++ {
		states = append(states, whole)
	}
	return states, nil
}

// stateOf is the mergeable state of a single instance that ingested recs,
// frame by frame.
func stateOf(recs []extension.Record) (collector.MergeState, error) {
	agg := collector.NewAggregator(collector.Config{Shards: 1})
	for len(recs) > 0 {
		n := min(frameRecords, len(recs))
		v, err := dataset.ParseBatchView(dataset.MarshalBatch(recs[:n]))
		if err != nil {
			_ = agg.Close()
			return collector.MergeState{}, err
		}
		agg.OfferBatchView(v, trace.SpanContext{})
		recs = recs[n:]
	}
	if err := agg.Close(); err != nil {
		return collector.MergeState{}, err
	}
	return agg.Snapshot().ExportState()
}

// verify checks the cluster against the single-instance reference through
// the merged query, and the servers' forward counter against the clients'.
func (w *clusterForward) verify(*phase) error {
	var states []collector.MergeState
	var sent, clientForwarded uint64
	for s, c := range w.clients {
		if err := c.Flush(); err != nil {
			return fmt.Errorf("final flush: %w", err)
		}
		st, err := w.reference(s)
		if err != nil {
			return err
		}
		states = append(states, st...)
		sent += w.sent[s]
		clientForwarded += c.Stats().Forwarded
	}
	want, err := collector.MergeStates(states...)
	if err != nil {
		return err
	}
	var got cluster.MergedReply
	if err := getJSON(w.https[0], "http://"+w.addrs[0]+cluster.PathClusterSnapshot, &got); err != nil {
		return err
	}
	if got.Snapshot.Accepted != sent || got.Snapshot.Dropped != 0 {
		return fmt.Errorf("sent %d records, cluster accepted %d and dropped %d", sent, got.Snapshot.Accepted, got.Snapshot.Dropped)
	}
	if err := sameGroups(got.Snapshot.Groups, want.Groups); err != nil {
		return fmt.Errorf("merged /cluster/snapshot vs single-instance reference: %w", err)
	}
	gotTable, _ := json.Marshal(got.CityTable)
	wantTable, _ := json.Marshal(want.CityTableJSON())
	if !bytes.Equal(gotTable, wantTable) {
		return fmt.Errorf("merged city table differs from the single-instance reference")
	}
	var serverForwarded float64
	for _, srv := range w.srvs {
		n, err := counterSum(srv.Aggregator().Registry(), "cluster_forwarded_records_total")
		if err != nil {
			return err
		}
		serverForwarded += n
	}
	if uint64(serverForwarded) != clientForwarded {
		return fmt.Errorf("servers count %d forwarded records, client replies count %d", uint64(serverForwarded), clientForwarded)
	}
	return nil
}

// forwardedRatio is the exact share of sent records that took the second
// hop, from the clients' reply counts.
func (w *clusterForward) forwardedRatio() float64 {
	var sent, fwd uint64
	for _, c := range w.clients {
		sent += c.Stats().Records
		fwd += c.Stats().Forwarded
	}
	return float64(fwd) / float64(max(sent, 1))
}

// sameGroups compares group rows field for field. Counts, domain sets and
// sketch quantiles must be equal; the mean is a float sum whose order
// differs between two interleaved streams and one reference, so it gets a
// relative tolerance instead.
func sameGroups(got, want []collector.GroupRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i, g := range got {
		r := want[i]
		if g.City != r.City || g.ISP != r.ISP || g.Count != r.Count || g.Domains != r.Domains ||
			g.P50PTTMs != r.P50PTTMs || g.P95PTTMs != r.P95PTTMs ||
			math.Abs(g.MeanPTTMs-r.MeanPTTMs) > 1e-9*math.Abs(r.MeanPTTMs) {
			return fmt.Errorf("group %d: got %+v, want %+v", i, g, r)
		}
	}
	return nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counterSum renders the registry and sums every series of one counter.
func counterSum(reg *obs.Registry, name string) (float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, s := range samples {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum, nil
}

func (w *clusterForward) close() error {
	for _, hc := range w.https {
		hc.CloseIdleConnections()
	}
	for _, n := range w.nodes {
		n.Close()
	}
	var first error
	for _, srv := range w.srvs {
		if err := srv.Shutdown(context.Background()); first == nil {
			first = err
		}
	}
	return first
}
