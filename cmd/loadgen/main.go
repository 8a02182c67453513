// Command loadgen drives a running collectord with K concurrent synthetic
// users replaying a generated browsing campaign at a target aggregate rate,
// then reports achieved throughput, batch POST tail latency, and the
// server's accept/drop counters.
//
// Usage:
//
//	loadgen [-addr 127.0.0.1:8787] [-users 8] [-rate 100000] [-duration 10s]
//	        [-batch 1000] [-days 10] [-seed 1] [-trace-every 0]
//	loadgen -targets HOST:PORT,HOST:PORT,... [-route ring|rr] [-vnodes 128]
//	loadgen -scrape [-targets HOST:PORT,...] [-scrape-interval 2s] [-duration 0]
//
// Every POST carries one columnar batch frame of -batch records. A rate of
// 0 removes the pacing and measures the sustainable maximum.
//
// With -targets, load fans out across a collectord cluster. -route ring
// (the default) partitions records onto the same consistent-hash ring the
// cluster routes by, so every batch lands on its owning instance; -route rr
// sprays batches round-robin instead, which exercises the cluster's
// forward-on-misroute path. The run report then covers every target plus
// the merged cluster totals.
//
// With -trace-every N (against a collectord started with -trace), every Nth
// batch per worker carries a sampled W3C traceparent header, and the run
// ends with a slowest-trace report fetched from the server's /traces
// endpoint — the span waterfall that explains the POST latency tail.
//
// With -scrape, loadgen generates no load: it polls the server's /metrics
// endpoint instead and prints per-interval deltas — ingest rate, drop rate,
// fsyncs per acknowledged batch (the group-commit sharing factor), and the
// interval p50/p99 ingest-ack latency recovered from the histogram buckets.
// Run it beside a sending loadgen (or any real clients) as a live console.
// With -targets the console sums deltas across every instance; a peer that
// restarts mid-run has its delta clamped to zero for that interval (never
// subtracted from the cluster total) and the reset is counted in the final
// report. A -duration of 0 scrapes until interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8787", "collectord address")
		users    = flag.Int("users", 8, "concurrent synthetic users")
		rate     = flag.Float64("rate", 100000, "target aggregate records/sec (0 = unthrottled)")
		duration = flag.Duration("duration", 10*time.Second, "send duration")
		batch    = flag.Int("batch", 1000, "records per POST")
		days     = flag.Int("days", 10, "length of the generated campaign being replayed")
		seed     = flag.Int64("seed", 1, "campaign seed")

		scrape     = flag.Bool("scrape", false, "poll /metrics and print deltas instead of generating load")
		scrapeIval = flag.Duration("scrape-interval", 2*time.Second, "polling interval in -scrape mode")
		traceEvery = flag.Int("trace-every", 0, "send a sampled traceparent on every Nth batch per worker (0 = never); needs collectord -trace")

		targets = flag.String("targets", "", "comma-separated cluster addresses (overrides -addr)")
		route   = flag.String("route", cluster.RouteRing, "multi-target routing: ring (send to each record's owner) or rr (spray batches, exercising forwarding)")
		vnodes  = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per target on the routing ring (must match the cluster's -vnodes)")
	)
	flag.Parse()

	if *scrape {
		tgts := splitList(*targets)
		if len(tgts) == 0 {
			tgts = []string{*addr}
		}
		if err := scrapeLoop(tgts, *scrapeIval, *duration); err != nil {
			fatal(err)
		}
		return
	}
	if *users <= 0 {
		fatal(fmt.Errorf("need at least one user"))
	}

	fmt.Printf("loadgen: generating a %d-day campaign (seed %d)...\n", *days, *seed)
	cfg := core.QuickConfig()
	cfg.Seed = *seed
	cfg.BrowsingDays = *days
	study, err := core.NewStudy(cfg)
	if err != nil {
		fatal(err)
	}
	if err := study.RunBrowsing(); err != nil {
		fatal(err)
	}
	records := study.Collector.Records()
	if len(records) == 0 {
		fatal(fmt.Errorf("campaign produced no records"))
	}
	fmt.Printf("loadgen: replaying %d records with %d users at %.0f rec/s for %v\n",
		len(records), *users, *rate, *duration)

	targetList := splitList(*targets)
	if len(targetList) == 0 {
		targetList = []string{*addr}
	}
	if len(targetList) > 1 {
		fmt.Printf("loadgen: %d targets, %s routing\n", len(targetList), *route)
	}

	// Encode the replay set into frames once; every user then
	// resends the same bytes, so client-side marshalling never competes
	// with the server for CPU. Each payload carries the target it belongs
	// to: under ring routing records are partitioned onto their owning
	// instance before batching (order within a partition preserved), under
	// round-robin the batches are dealt across targets as-is.
	payloads, err := encodePayloads(records, targetList, *route, *vnodes, *batch)
	if err != nil {
		fatal(err)
	}

	perUser := *rate / float64(*users)
	deadline := time.Now().Add(*duration)
	results := make([]workerResult, *users)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *users; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = replay(payloads, w*len(payloads) / *users, perUser, deadline, *traceEvery)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var sent uint64
	lat, _ := stats.NewQuantileSketch(stats.DefaultSketchRelErr)
	for _, r := range results {
		if r.err != nil {
			fatal(r.err)
		}
		sent += r.stats.Records
		if err := lat.Merge(r.stats.Latency); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("\nloadgen: sent %d records in %v — %.0f rec/s achieved\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	fmt.Printf("POST latency: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  (%d batches)\n",
		lat.Quantile(0.50)/1e3, lat.Quantile(0.95)/1e3, lat.Quantile(0.99)/1e3, lat.Count())

	for _, target := range targetList {
		base := "http://" + target
		var st collector.StatsReply
		if err := getJSON(base+collector.PathStats, &st); err != nil {
			fatal(err)
		}
		dropRate := 0.0
		if st.Accepted+st.Dropped > 0 {
			dropRate = 100 * float64(st.Dropped) / float64(st.Accepted+st.Dropped)
		}
		fmt.Printf("server %s: accepted %d, dropped %d (%.3f%% drop rate), processed %d\n",
			target, st.Accepted, st.Dropped, dropRate, st.Processed)
		for _, sh := range st.Shards {
			fmt.Printf("  shard %d: accepted %8d  dropped %6d  queue %4d  ingest p95 %.0f µs\n",
				sh.Shard, sh.Accepted, sh.Dropped, sh.QueueLen, sh.IngestP95Us)
		}
		if st.WAL != nil {
			// The fsync count against the batch count is the group-commit win:
			// far fewer fsyncs than acknowledged batches means commits shared.
			fmt.Printf("  wal: durable LSN %d/%d  %d segments  %d bytes  %d fsyncs  %d checkpoints\n",
				st.WAL.DurableLSN, st.WAL.AppendedLSN, st.WAL.Segments,
				st.WAL.AppendedBytes, st.WAL.Syncs, st.WAL.Checkpoints)
		}
	}
	if len(targetList) > 1 {
		// The merged view is the cluster's contract: any instance must
		// answer with the union of everything every instance accepted.
		var merged struct {
			Peers    []string `json:"peers"`
			Snapshot struct {
				Accepted  uint64 `json:"accepted"`
				Dropped   uint64 `json:"dropped"`
				Processed uint64 `json:"processed"`
			} `json:"snapshot"`
		}
		if err := getJSON("http://"+targetList[0]+cluster.PathClusterSnapshot, &merged); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: merged snapshot:", err)
		} else {
			fmt.Printf("cluster (%d peers merged): accepted %d, dropped %d, processed %d\n",
				len(merged.Peers), merged.Snapshot.Accepted, merged.Snapshot.Dropped, merged.Snapshot.Processed)
		}
	}
	if *traceEvery > 0 {
		if err := reportSlowTraces("http://"+targetList[0], 5); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: trace report:", err)
		}
	}
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// encodePayloads turns the replay set into per-target frames. Ring
// routing partitions records by their (city, ISP) ring owner so replayed
// batches land exactly where the cluster would keep them; round-robin deals
// whole batches across targets in turn.
func encodePayloads(records []extension.Record, targets []string, route string, vnodes, batch int) ([]payload, error) {
	parts := map[string][]extension.Record{targets[0]: records}
	if len(targets) > 1 {
		switch route {
		case cluster.RouteRing:
			ring := cluster.NewRing(targets, vnodes)
			parts = make(map[string][]extension.Record)
			for _, r := range records {
				owner := ring.Owner(r.City, r.ISP)
				parts[owner] = append(parts[owner], r)
			}
		case cluster.RouteRR:
			// Batch first, assign after: rotation happens below.
			parts = map[string][]extension.Record{"": records}
		default:
			return nil, fmt.Errorf("unknown route %q (want %s or %s)", route, cluster.RouteRing, cluster.RouteRR)
		}
	}
	var payloads []payload
	for owner, part := range parts {
		for off := 0; off < len(part); off += batch {
			end := min(off+batch, len(part))
			base := owner
			if base == "" { // round-robin: deal batches across targets
				base = targets[len(payloads)%len(targets)]
			}
			payloads = append(payloads, payload{base: "http://" + base, data: dataset.MarshalBatch(part[off:end]), n: end - off})
		}
	}
	return payloads, nil
}

// traceparentEvery returns a ClientConfig.Traceparent hook sampling every
// nth POST with a fresh random (forced-sample) trace context, or nil when
// n <= 0. Each worker gets its own hook; the client serialises calls.
func traceparentEvery(n int, seed int64) func() string {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	sends := 0
	return func() string {
		sends++
		if sends%n != 0 {
			return ""
		}
		var sc trace.SpanContext
		rng.Read(sc.Trace[:])
		rng.Read(sc.Span[:])
		sc.Sampled = true
		return sc.Traceparent()
	}
}

// reportSlowTraces fetches the server's kept traces and prints the slowest
// few as one-line summaries: the tail the POST percentiles only hint at.
func reportSlowTraces(base string, top int) error {
	var reply struct {
		Traces []trace.Trace `json:"traces"`
	}
	if err := getJSON(base+collector.PathTraces+"?limit=100", &reply); err != nil {
		return err
	}
	if len(reply.Traces) == 0 {
		fmt.Println("\nserver kept no traces (is collectord running with -trace?)")
		return nil
	}
	sort.Slice(reply.Traces, func(i, j int) bool {
		return reply.Traces[i].Duration > reply.Traces[j].Duration
	})
	if top > len(reply.Traces) {
		top = len(reply.Traces)
	}
	fmt.Printf("\nslowest kept traces (%d of %d):\n", top, len(reply.Traces))
	for _, tr := range reply.Traces[:top] {
		var slowest trace.SpanData
		errs := 0
		for _, sd := range tr.Spans {
			if sd.Error != "" {
				errs++
			}
			if !sd.Root && sd.DurationNS > slowest.DurationNS {
				slowest = sd
			}
		}
		line := fmt.Sprintf("  %s  %8v  %2d spans", tr.ID, tr.Duration.Round(time.Microsecond), len(tr.Spans))
		if slowest.Name != "" {
			line += fmt.Sprintf("  slowest child %s (%v)", slowest.Name, slowest.Duration().Round(time.Microsecond))
		}
		if errs > 0 {
			line += fmt.Sprintf("  errors=%d", errs)
		}
		fmt.Println(line)
	}
	return nil
}

type payload struct {
	base string
	data []byte
	n    int
}

type workerResult struct {
	stats collector.ClientStats
	err   error
}

// replay cycles one worker through the shared pre-encoded payloads from
// its own offset, pacing itself to rate records/sec until the deadline.
// Each payload already names its target; the worker keeps one client (and
// so one connection pool and latency sketch) per target it touches.
func replay(payloads []payload, offset int, rate float64, deadline time.Time, traceEvery int) workerResult {
	transport := collector.NewFrameTransport()
	defer transport.CloseIdleConnections()
	httpClient := &http.Client{Timeout: 30 * time.Second, Transport: transport}
	traceparent := traceparentEvery(traceEvery, int64(offset))
	clients := make(map[string]*collector.Client)
	clientFor := func(base string) *collector.Client {
		if c, ok := clients[base]; ok {
			return c
		}
		c := collector.NewClient(base, collector.ClientConfig{
			// Flushes are explicit sends of pre-encoded payloads; the timer
			// would only add jitter to the latency measurement.
			FlushEvery:  0,
			HTTPClient:  httpClient,
			Traceparent: traceparent,
		})
		clients[base] = c
		return c
	}
	start := time.Now()
	sent := 0
	var err error
	for i := 0; time.Now().Before(deadline); i++ {
		p := payloads[(offset+i)%len(payloads)]
		if err = clientFor(p.base).SendExtensionFrames(p.data, p.n); err != nil {
			break
		}
		sent += p.n
		if rate > 0 {
			expected := time.Duration(float64(sent) / rate * float64(time.Second))
			if ahead := expected - time.Since(start); ahead > time.Millisecond {
				time.Sleep(ahead)
			}
		}
	}
	var res workerResult
	for _, c := range clients {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		st := c.Stats()
		res.stats.Records += st.Records
		res.stats.Batches += st.Batches
		if res.stats.Latency == nil {
			res.stats.Latency = st.Latency
		} else if merr := res.stats.Latency.Merge(st.Latency); merr != nil && err == nil {
			err = merr
		}
	}
	res.err = err
	return res
}

// metricsSnap is one /metrics poll reduced to the counters the console
// tracks, plus the ack-latency histogram's cumulative buckets.
type metricsSnap struct {
	at       time.Time
	accepted float64
	dropped  float64
	fsyncs   float64
	acks     float64
	queue    float64
	bounds   []float64
	cum      []uint64
}

func fetchMetrics(base string) (metricsSnap, error) {
	resp, err := http.Get(base + collector.PathMetrics)
	if err != nil {
		return metricsSnap{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metricsSnap{}, fmt.Errorf("GET %s: %s", collector.PathMetrics, resp.Status)
	}
	ss, err := obs.ParseText(resp.Body)
	if err != nil {
		return metricsSnap{}, err
	}
	snap := metricsSnap{
		at:       time.Now(),
		accepted: ss.Sum("ingest_records_total", nil),
		dropped:  ss.Sum("ingest_dropped_records_total", nil),
		fsyncs:   ss.Sum("wal_fsyncs_total", nil),
		acks:     ss.Sum("ingest_ack_latency_seconds_count", nil),
		queue:    ss.Sum("collector_shard_queue_depth", nil),
	}
	snap.bounds, snap.cum = ss.BucketCounts("ingest_ack_latency_seconds", nil)
	return snap, nil
}

// scrapeLoop polls every target's /metrics each interval and prints the
// summed deltas. Rates come from counter differences; the interval
// ack-latency percentiles come from subtracting consecutive cumulative
// bucket vectors — the same subtraction PromQL's rate() performs before
// histogram_quantile.
//
// Restarts are handled per peer: a negative delta means THAT instance's
// counters reset, so its contribution for the interval is clamped to zero
// and its baseline reseeded, while the other peers' deltas keep flowing.
// (Reseeding the merged baseline instead would make the whole cluster's
// rates negative garbage for an interval every time one peer bounces.)
// An unreachable peer — mid-restart — is skipped the same way. The final
// report counts both, so a bouncing collector is visible, not silent.
func scrapeLoop(targets []string, interval, duration time.Duration) error {
	prev := make([]metricsSnap, len(targets))
	seeded := make([]bool, len(targets))
	for i, tgt := range targets {
		snap, err := fetchMetrics("http://" + tgt)
		if err != nil {
			return err
		}
		prev[i], seeded[i] = snap, true
	}
	var deadline time.Time
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	if len(targets) == 1 {
		fmt.Printf("scraping http://%s%s every %v\n", targets[0], collector.PathMetrics, interval)
	} else {
		fmt.Printf("scraping %d targets (%s) every %v\n",
			len(targets), strings.Join(targets, ", "), interval)
	}
	fmt.Printf("%8s %8s %9s %11s %7s %10s %10s\n",
		"rec/s", "batch/s", "drop%", "fsync/batch", "queue", "ack p50", "ack p99")
	resets, unreachable := 0, 0
	for {
		time.Sleep(interval)
		now := time.Now()
		var dAcc, dDrop, dAcks, dFsync, queue, dt float64
		var bounds []float64
		var delta []uint64
		for i, tgt := range targets {
			cur, err := fetchMetrics("http://" + tgt)
			if err != nil {
				// Mid-restart: contribute nothing this interval and force a
				// reseed when the peer comes back.
				fmt.Printf("peer %s unreachable (%v); skipping this interval\n", tgt, err)
				unreachable++
				seeded[i] = false
				continue
			}
			if !seeded[i] {
				prev[i], seeded[i] = cur, true
				continue
			}
			pAcc := cur.accepted - prev[i].accepted
			pDrop := cur.dropped - prev[i].dropped
			pAcks := cur.acks - prev[i].acks
			pFsync := cur.fsyncs - prev[i].fsyncs
			if pAcc < 0 || pDrop < 0 || pAcks < 0 || pFsync < 0 {
				fmt.Printf("peer %s: counter reset detected (restart?); clamping its delta to zero\n", tgt)
				resets++
				prev[i] = cur
				queue += cur.queue
				continue
			}
			dAcc += pAcc
			dDrop += pDrop
			dAcks += pAcks
			dFsync += pFsync
			queue += cur.queue
			if d := obs.SubCounts(cur.bounds, cur.cum, prev[i].cum); d != nil {
				if bounds == nil {
					bounds, delta = cur.bounds, d
				} else if len(d) == len(delta) {
					for j := range d {
						delta[j] += d[j]
					}
				}
			}
			if s := now.Sub(prev[i].at).Seconds(); s > dt {
				dt = s
			}
			prev[i] = cur
		}
		if dt == 0 {
			dt = interval.Seconds()
		}
		dropPct := 0.0
		if dAcc+dDrop > 0 {
			dropPct = 100 * dDrop / (dAcc + dDrop)
		}
		fsyncPerBatch := math.NaN()
		if dAcks > 0 {
			fsyncPerBatch = dFsync / dAcks
		}
		p50, p99 := math.NaN(), math.NaN()
		// delta is already the summed per-peer interval vector, so the
		// quantile helper runs in its nil-prev (pre-subtracted) form.
		if v, ok := obs.QuantileFromBucketDeltas(0.50, bounds, delta, nil); ok {
			p50 = v
		}
		if v, ok := obs.QuantileFromBucketDeltas(0.99, bounds, delta, nil); ok {
			p99 = v
		}
		fmt.Printf("%8.0f %8.1f %8.3f%% %11.2f %7.0f %9.2fms %9.2fms\n",
			dAcc/dt, dAcks/dt, dropPct, fsyncPerBatch, queue, p50*1e3, p99*1e3)
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if resets > 0 || unreachable > 0 {
				fmt.Printf("scrape report: %d counter resets, %d unreachable polls across %d targets\n",
					resets, unreachable, len(targets))
			}
			return nil
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
