package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// partitionCounts returns how many of n round-robin items land on each of
// the k partitions.
func partitionCounts(n, k int) []int {
	out := make([]int, k)
	for i := 0; i < n; i++ {
		out[i%k]++
	}
	return out
}

// fetchClusterMetrics scrapes one coordinator's federated exposition.
func fetchClusterMetrics(t *testing.T, coordinator string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + coordinator + PathClusterMetrics)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", PathClusterMetrics, resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("federated scrape Content-Type %q", ct)
	}
	return body
}

// TestFederatedMetricsPartitionProperty is the federation invariant: for
// K in {1,2,3,5}, partitioning the record stream across K instances and
// scraping the coordinator's /cluster/metrics yields every ingest-driven
// counter — and every histogram _count — exactly equal to a single
// instance that ingested the whole stream. Counters merge by exact sums,
// never approximation.
func TestFederatedMetricsPartitionProperty(t *testing.T) {
	records := testRecords(3000)

	// Reference: one aggregator, its own registry, the whole stream. Every
	// nonzero series in this exposition is ingest-driven by construction.
	refReg := obs.NewRegistry()
	refAgg, err := collector.OpenAggregator(collector.Config{Shards: 2, Registry: refReg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		if offerRecords(refAgg, r) != 1 {
			t.Fatalf("reference record %d rejected", i)
		}
	}
	if err := refAgg.Close(); err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := refReg.WritePrometheus(&refBuf); err != nil {
		t.Fatal(err)
	}
	refExpo, err := obs.ParseExposition(bytes.NewReader(refBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 3, 5} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			srvs := make([]*collector.Server, k)
			addrs := make([]string, k)
			for i := range srvs {
				srv, err := collector.OpenServer(collector.Config{
					Shards:   2,
					Registry: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				srvs[i] = srv
				addrs[i] = srv.Addr()
			}
			nodes := make([]*Node, k)
			for i := range srvs {
				nodes[i] = newTestNode(t, srvs[i], addrs[i], addrs)
			}
			defer func() {
				for i := range srvs {
					nodes[i].Close()
					_ = srvs[i].Shutdown(t.Context())
				}
			}()

			// Partition the stream: instance p takes every k-th item.
			for i, r := range records {
				if offerRecords(srvs[i%k].Aggregator(), r) != 1 {
					t.Fatalf("record %d rejected by instance %d", i, i%k)
				}
			}
			// Each instance's partition was offered locally, so a read
			// already covers all of it.
			wantPer := partitionCounts(len(records), k)
			for p := 0; p < k; p++ {
				if got, want := srvs[p].Aggregator().Snapshot().Processed, uint64(wantPer[p]); got != want {
					t.Fatalf("instance %d processed %d records, want %d", p, got, want)
				}
			}

			body := fetchClusterMetrics(t, addrs[0])
			merged, err := obs.ParseText(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("K=%d: merged exposition does not re-parse: %v", k, err)
			}
			mergedExpo, err := obs.ParseExposition(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range mergedExpo.Families {
				if f.Untyped {
					t.Errorf("K=%d: merged family %s lost its TYPE line", k, f.Name)
				}
			}

			// Every reference counter — and histogram _count — must appear
			// in the merged exposition with exactly the reference value.
			checked := 0
			for _, f := range refExpo.Families {
				switch f.Type {
				case obs.TypeCounter:
					for _, s := range f.Samples {
						mv, ok := merged.Value(s.Name, s.Labels)
						if !ok || mv != s.Value {
							t.Errorf("K=%d: counter %s%v = %v,%v want exactly %v",
								k, s.Name, s.Labels, mv, ok, s.Value)
						}
						checked++
					}
				case obs.TypeHistogram:
					for _, s := range f.Samples {
						if !strings.HasSuffix(s.Name, "_count") {
							continue
						}
						mv, ok := merged.Value(s.Name, s.Labels)
						if !ok || mv != s.Value {
							t.Errorf("K=%d: histogram count %s%v = %v,%v want exactly %v",
								k, s.Name, s.Labels, mv, ok, s.Value)
						}
						checked++
					}
				}
			}
			if checked < 10 {
				t.Fatalf("K=%d: only %d series compared; reference exposition too thin", k, checked)
			}
		})
	}
}

// startTracedInstance opens a WAL-less traced collector and wraps it in a
// node sharing the same tracer, so forwards, fan-outs and ingest spans all
// land in one per-instance ring.
func startTracedInstance(t *testing.T, seed int64) (*collector.Server, *trace.Tracer) {
	t.Helper()
	tracer := trace.New(trace.Config{Seed: seed})
	srv, err := collector.OpenServer(collector.Config{
		Shards:   2,
		Registry: obs.NewRegistry(),
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv, tracer
}

// TestStitchedTraceAcrossForward is the cross-process assembly e2e: a
// sampled batch posted to one instance forwards its misrouted records to
// the owner, and GET /cluster/traces/{id} on ANY instance returns one tree
// containing both sides of the hop — the target's root span parented on
// the origin's cluster.forward span, every span tagged with its instance.
func TestStitchedTraceAcrossForward(t *testing.T) {
	srvs := make([]*collector.Server, 2)
	tracers := make([]*trace.Tracer, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i], tracers[i] = startTracedInstance(t, int64(1+i))
		addrs[i] = srvs[i].Addr()
	}
	nodes := make([]*Node, 2)
	for i := range srvs {
		n, err := NewNode(NodeConfig{
			Server: srvs[i],
			Self:   addrs[i],
			Peers:  addrs,
			Tracer: tracers[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	defer func() {
		for i := range srvs {
			nodes[i].Close()
			_ = srvs[i].Shutdown(t.Context())
		}
	}()

	// Post everything to instance 0 with a forced-sampled traceparent; the
	// ring owns some groups on instance 1, so the server forwards.
	records := testRecords(60)
	const traceID = "5f1e8c4b2a9d47c6b3e0f9a812d45e77"
	req, err := http.NewRequest(http.MethodPost,
		"http://"+addrs[0]+collector.PathIngestBatch, bytes.NewReader(dataset.MarshalBatch(records)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", collector.BatchContentType)
	req.Header.Set(trace.TraceparentHeader, "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var reply collector.IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reply.Forwarded == 0 {
		t.Fatalf("ingest: status %d, reply %+v — no forward happened, hop untested",
			resp.StatusCode, reply)
	}

	// Both coordinators must stitch the same story. Spans finish
	// asynchronously (shard applies), so poll for the full shape.
	for _, coordinator := range addrs {
		var tr trace.Trace
		deadline := time.Now().Add(10 * time.Second)
		for {
			ok := func() bool {
				resp, err := http.Get("http://" + coordinator + PathClusterTraces + "/" + traceID)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					return false
				}
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					t.Fatalf("GET stitched trace: %s: %s", resp.Status, body)
				}
				if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
					t.Fatal(err)
				}
				return stitchComplete(tr, addrs)
			}()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("coordinator %s never stitched the full hop; have %d spans: %+v",
					coordinator, len(tr.Spans), tr.Spans)
			}
			time.Sleep(10 * time.Millisecond)
		}

		// The target's root must hang off the origin's forward span: one
		// tree across two processes.
		var forward, targetRoot *trace.SpanData
		for i := range tr.Spans {
			sd := &tr.Spans[i]
			if sd.TraceID != traceID {
				t.Fatalf("stitched span %s carries trace %s", sd.Name, sd.TraceID)
			}
			switch {
			case sd.Name == "cluster.forward":
				forward = sd
			case sd.Root && spanInstance(*sd) == addrs[1]:
				targetRoot = sd
			}
		}
		if forward == nil || targetRoot == nil {
			t.Fatalf("coordinator %s: missing forward (%v) or target root (%v)", coordinator, forward, targetRoot)
		}
		if spanInstance(*forward) != addrs[0] {
			t.Fatalf("forward span tagged %q, want origin %q", spanInstance(*forward), addrs[0])
		}
		if targetRoot.Parent != forward.SpanID {
			t.Fatalf("target root parented on %q, want forward span %q", targetRoot.Parent, forward.SpanID)
		}
	}

	// The cluster-wide listing surfaces the stitched trace with both
	// instances attributed.
	resp2, err := http.Get("http://" + addrs[0] + PathClusterTraces)
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []ClusterTraceInfo `json:"traces"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	found := false
	for _, info := range listing.Traces {
		if info.ID == traceID {
			found = true
			if len(info.Instances) != 2 {
				t.Fatalf("listing attributes %v, want both instances", info.Instances)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s missing from %s listing", traceID, PathClusterTraces)
	}
}

// stitchComplete reports whether the assembled trace already shows the
// whole forward hop: spans from both instances and a forward span.
func stitchComplete(tr trace.Trace, addrs []string) bool {
	seen := map[string]bool{}
	forward := false
	for _, sd := range tr.Spans {
		seen[spanInstance(sd)] = true
		if sd.Name == "cluster.forward" {
			forward = true
		}
	}
	return forward && seen[addrs[0]] && seen[addrs[1]]
}

func spanInstance(sd trace.SpanData) string {
	for _, at := range sd.Attrs {
		if at.Key == "instance" {
			return at.Value
		}
	}
	return ""
}
