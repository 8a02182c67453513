package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"starlinkview/internal/bentpipe"
	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/geo"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
	"starlinkview/internal/trace"
	"starlinkview/internal/tranco"
	"starlinkview/internal/wal"
	"starlinkview/internal/webperf"
)

// materialisedLayers measures the record-materialising path that WAL replay
// and every forwarded frame still take: UnmarshalBatch, then
// OfferExtensionFrame's per-record enqueue.
func materialisedLayers(tr *tracer, p *pool, vals map[string]float64) error {
	st := tr.stage("stage/dataset.unmarshal")
	var err error
	st.timed(func() {
		for i := 0; i < stageFrames && err == nil; i++ {
			sp := tr.start("dataset.UnmarshalBatch", st.sp, int64(i))
			_, err = dataset.UnmarshalBatch(p.frames[i%poolFrames])
			sp.end()
		}
	})
	if err != nil {
		return err
	}
	vals["dataset.unmarshal_ns_per_record"] = perRecord(st.done(), stageRecords)

	agg := collector.NewAggregator(collector.Config{Shards: collectorShards, QueueLen: collectorQueueLen})
	defer agg.Close()
	st = tr.stage("stage/collector.offer_frame")
	for done := 0; done < stageFrames && err == nil; done += stageChunk {
		var batch [][]extension.Record
		for i := 0; i < stageChunk; i++ {
			recs, err := dataset.UnmarshalBatch(p.frames[i%poolFrames])
			if err != nil {
				return err
			}
			batch = append(batch, recs)
		}
		st.timed(func() {
			for i, recs := range batch {
				sp := tr.start("collector.Aggregator.OfferExtensionFrame", st.sp, int64(done+i))
				if acc, drop := agg.OfferExtensionFrame(p.frames[i%poolFrames], recs, trace.SpanContext{}); acc != frameRecords || drop != 0 {
					err = fmt.Errorf("offer frame: accepted %d, dropped %d", acc, drop)
				}
				sp.end()
			}
			if err == nil {
				err = drained(agg)
			}
		})
	}
	vals["collector.offer_frame_ns_per_record"] = perRecord(st.done(), stageRecords)
	return err
}

func (w *recoverCold) layers(tr *tracer, p *phase) (map[string]float64, error) {
	pl, err := w.e.newPool(20)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{"core.campaign_records_per_s": pl.genRate}
	if err := materialisedLayers(tr, pl, vals); err != nil {
		return nil, err
	}
	ready := median(tr.durationsMs("collector.recover_ready"))
	vals["collector.recover_ready_ms"] = ready
	vals["collector.recover_ns_per_record"] = ready * 1e6 / float64(w.records)
	vals["collector.snapshot_ms"] = median(tr.durationsMs("collector.snapshot"))

	st := tr.stage("stage/wal.replay")
	var frames, bytes int64
	st.timed(func() {
		err = wal.ReplayDir(w.e.fs, w.template, 0, func(r wal.Rec) error {
			frames++
			bytes += int64(len(r.Payload))
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if frames != recoverFrames {
		return nil, fmt.Errorf("replay delivered %d frames, log holds %d", frames, recoverFrames)
	}
	vals["wal.replay_ns_per_record"] = perRecord(st.done(), int(w.records))
	vals["wal.b_per_record"] = float64(bytes) / float64(w.records)
	return vals, nil
}

// cannedTransport answers every request 200 with an empty ingest reply and
// no network, so a client's own cost can be measured alone.
type cannedTransport struct{}

func (cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(bytes.NewReader([]byte("{}"))), Request: req,
	}, nil
}

func (w *clusterForward) layers(tr *tracer, p *phase) (map[string]float64, error) {
	vals := map[string]float64{"core.campaign_records_per_s": w.pool.genRate}
	loadgenMetrics(p, vals)
	deviceMetrics(p, p.attempted, vals)
	vals["cluster.forwarded_ratio"] = w.forwardedRatio()
	if err := materialisedLayers(tr, w.pool, vals); err != nil {
		return nil, err
	}

	ring := cluster.NewRing(w.addrs, cluster.DefaultVNodes)
	st := tr.stage("stage/cluster.ring_owner")
	owned := 0
	st.timed(func() {
		for i := 0; i < stageRecords; i++ {
			r := &w.pool.records[i%len(w.pool.records)]
			if ring.Owner(r.City, r.ISP) == w.addrs[0] {
				owned++
			}
		}
	})
	if owned == 0 || owned == stageRecords {
		return nil, fmt.Errorf("ring gave instance 0 %d of %d records", owned, stageRecords)
	}
	vals["cluster.ring_owner_ns"] = perRecord(st.done(), stageRecords)

	// The client alone: buffer, encode and send into a canned transport.
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Targets: w.addrs, Route: cluster.RouteRR, Wire: collector.WireBatch,
		BatchSize: frameRecords, HTTPClient: &http.Client{Transport: cannedTransport{}},
	})
	if err != nil {
		return nil, err
	}
	st = tr.stage("stage/cluster.client_add")
	st.timed(func() {
		for i := 0; i < stageRecords && err == nil; i++ {
			err = cl.AddRecord(w.pool.records[i%len(w.pool.records)])
		}
	})
	if err != nil {
		return nil, err
	}
	vals["cluster.client_add_ns_per_record"] = perRecord(st.done(), stageRecords)

	// The forward hop, both ends: instance 0 re-marshals a frame's records
	// and POSTs them to instance 1, which ingests them as the terminal hop.
	const forwardFrames = stageFrames / 8
	st = tr.stage("stage/cluster.forward")
	st.timed(func() {
		for i := 0; i < forwardFrames && err == nil; i++ {
			sp := tr.start("cluster.Node.ForwardExtension", st.sp, int64(i))
			var n int
			n, err = w.nodes[0].ForwardExtension(w.addrs[1], w.pool.frame(i%poolFrames), trace.SpanContext{})
			if err == nil && n != frameRecords {
				err = fmt.Errorf("forward: peer accepted %d of %d", n, frameRecords)
			}
			sp.end()
		}
		if err == nil {
			err = drained(w.srvs[1].Aggregator())
		}
	})
	if err != nil {
		return nil, err
	}
	vals["cluster.forward_ns_per_record"] = perRecord(st.done(), forwardFrames*frameRecords)

	snap := w.srvs[0].Aggregator().Snapshot()
	var state collector.MergeState
	vals["collector.export_state_ms"], err = repeatMs(tr, "collector.Snapshot.ExportState", stageCalls, func() error {
		var err error
		state, err = snap.ExportState()
		return err
	})
	if err != nil {
		return nil, err
	}
	vals["collector.merge_states_ms"], err = repeatMs(tr, "collector.MergeStates", stageCalls, func() error {
		_, err := collector.MergeStates(state, state, state)
		return err
	})
	if err != nil {
		return nil, err
	}
	vals["cluster.merged_snapshot_ms"], err = repeatMs(tr, "cluster.Node.MergedSnapshot", stageCalls, func() error {
		_, err := w.nodes[0].MergedSnapshot(nil)
		return err
	})
	return vals, err
}

func (w *simExhibits) layers(tr *tracer, p *phase) (map[string]float64, error) {
	vals := map[string]float64{}
	for _, name := range append([]string{"new_study"}, exhibitNames()...) {
		vals["core."+name+"_s"] = median(tr.durationsMs("core."+name)) / 1e3
	}
	s, err := core.NewStudy(networkConfig())
	if err != nil {
		return nil, err
	}
	// Figure 8 alone takes several timed sets; once is what the budget allows.
	vals["core.figure8_s"], err = repeatMs(tr, "core."+figure8.name, 1, func() error { return figure8.run(s, io.Discard) })
	vals["core.figure8_s"] /= 1e3
	if err != nil {
		return nil, err
	}
	pl, err := w.e.newPool(20)
	if err != nil {
		return nil, err
	}
	vals["core.campaign_records_per_s"] = pl.genRate

	const calls = 20_000
	c := s.Constellation
	london := ispnet.London
	epoch := networkConfig().Epoch
	st := tr.stage("stage/orbit.visible_from")
	st.timed(func() {
		var buf []orbit.Visible
		for i := 0; i < calls; i++ {
			buf = c.VisibleFromAppend(london.Loc, epoch.Add(time.Duration(i)*time.Second), buf[:0])
		}
	})
	vals["orbit.visible_from_ns"] = perRecord(st.done(), calls)

	st = tr.stage("stage/orbit.serving")
	st.timed(func() {
		var scratch []orbit.Visible
		for i := 0; i < calls; i++ {
			c.ServingInto(london.Loc, epoch.Add(time.Duration(i)*time.Second), orbit.HighestElevation, &scratch)
		}
	})
	vals["orbit.serving_ns"] = perRecord(st.done(), calls)

	pipe, err := bentpipe.New(bentpipe.Config{
		Terminal: london.Loc, PoP: london.PoP, Constellation: c, Epoch: epoch,
		DownCapacityBps: 330e6, UpCapacityBps: 28e6,
		Load: bentpipe.DiurnalLoad{Base: 0.15, Peak: 0.62, PeakHour: 21, UTCOffsetHours: london.UTCOffsetHours, Subscribers: london.Subscribers},
		Seed: int64(w.e.seed),
	})
	if err != nil {
		return nil, err
	}
	st = tr.stage("stage/bentpipe.state_at")
	st.timed(func() {
		for i := 0; i < calls; i++ {
			pipe.StateAt(time.Duration(i) * time.Second)
		}
	})
	vals["bentpipe.state_at_ns"] = perRecord(st.done(), calls)

	const events = 2_000_000
	st = tr.stage("stage/netsim.events")
	st.timed(func() {
		sim := netsim.NewSim(int64(w.e.seed))
		for i := 0; i < events; i++ {
			sim.Schedule(time.Microsecond, func() {})
			if i%1024 == 0 {
				sim.Run()
			}
		}
		sim.Run()
	})
	vals["netsim.events_per_s"] = events / st.done().wall.Seconds()

	const simulated = 20 * time.Second
	sim := netsim.NewSim(int64(w.e.seed))
	path, err := netsim.NewPath(
		[]*netsim.Node{netsim.NewNode("c", ""), netsim.NewNode("s", "")},
		[]netsim.LinkSpec{{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 500000}}, nil)
	if err != nil {
		return nil, err
	}
	st = tr.stage("stage/cc.iperf")
	st.timed(func() { _, err = measure.IperfTCP(sim, path, "cubic", simulated) })
	if err != nil {
		return nil, err
	}
	vals["cc.iperf_sim_s_per_s"] = simulated.Seconds() / st.done().wall.Seconds()

	list, err := tranco.NewList(int64(w.e.seed), 0)
	if err != nil {
		return nil, err
	}
	site, err := list.Site(50)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(w.e.seed)))
	acc := webperf.Access{RTT: 30 * time.Millisecond, JitterMean: 8 * time.Millisecond, DownBps: 150e6, LossProb: 0.002}
	opts := webperf.Options{ClientLoc: geo.LatLon{LatDeg: 51.5}, CDNEdgeRTT: 4 * time.Millisecond}
	st = tr.stage("stage/webperf.load_page")
	st.timed(func() {
		for i := 0; i < calls; i++ {
			webperf.LoadPage(rng, site, acc, opts)
		}
	})
	vals["webperf.load_page_ns"] = perRecord(st.done(), calls)
	return vals, nil
}

func exhibitNames() []string {
	var names []string
	for _, ex := range slices.Concat(browsingExhibits, networkExhibits) {
		names = append(names, ex.name)
	}
	return names
}
