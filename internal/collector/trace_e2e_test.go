package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// TestTracedIngestEndToEnd is the acceptance check for the tracing layer:
// a batch POSTed with an injected (sampled) traceparent must produce a kept
// trace whose spans cover HTTP handling, batch decode, WAL append,
// group-commit fsync and shard apply with consistent parent/child nesting —
// and the trace ID must surface as an exemplar on the latency histograms in
// the OpenMetrics exposition.
func TestTracedIngestEndToEnd(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 42})
	srv, err := OpenServer(Config{
		Shards: 2,
		Tracer: tracer,
		WAL:    WALConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	rng := rand.New(rand.NewSource(5))
	records := make([]extension.Record, 20)
	for i := range records {
		records[i] = testRecord(rng, "London", "starlink")
	}
	payload, err := EncodeExtensionBatch(records)
	if err != nil {
		t.Fatal(err)
	}

	// The sampled flag (…-01) forces the tail sampler to keep this trace.
	const parentHeader = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, err := http.NewRequest(http.MethodPost, srv.URL()+PathIngestExtension, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ExtensionContentType)
	req.Header.Set(trace.TraceparentHeader, parentHeader)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var reply IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reply.Accepted != len(records) {
		t.Fatalf("ingest: status %d, accepted %d/%d", resp.StatusCode, reply.Accepted, len(records))
	}

	// The shard.apply span finishes asynchronously; poll /traces until the
	// trace carries the full span set.
	const wantTrace = "0af7651916cd43dd8448eb211c80319c"
	var got trace.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		var reply struct {
			Traces []trace.Trace `json:"traces"`
		}
		if err := getTestJSON(srv.URL()+PathTraces+"?limit=50", &reply); err != nil {
			t.Fatal(err)
		}
		for _, tr := range reply.Traces {
			if tr.ID == wantTrace {
				got = tr
			}
		}
		if len(got.Spans) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never completed; have %d spans: %+v", wantTrace, len(got.Spans), got.Spans)
		}
		time.Sleep(10 * time.Millisecond)
	}

	byName := map[string]trace.SpanData{}
	for _, sd := range got.Spans {
		if sd.TraceID != wantTrace {
			t.Fatalf("span %s carries trace %s, want %s", sd.Name, sd.TraceID, wantTrace)
		}
		byName[sd.Name] = sd
	}
	root, ok := byName["http POST "+PathIngestExtension]
	if !ok || !root.Root {
		t.Fatalf("missing HTTP root span; have %v", names(got.Spans))
	}
	if root.Parent != "b7ad6b7169203331" {
		t.Fatalf("root parent %q, want the injected span ID", root.Parent)
	}
	decode, ok := byName["ingest.decode"]
	if !ok || decode.Parent != root.SpanID {
		t.Fatalf("ingest.decode missing or mis-parented (%+v); root %s", decode, root.SpanID)
	}
	walAppend, ok := byName["wal.append"]
	if !ok || walAppend.Parent != decode.SpanID {
		t.Fatalf("wal.append missing or mis-parented (%+v); decode %s", walAppend, decode.SpanID)
	}
	fsync, ok := byName["wal.fsync"]
	if !ok || fsync.Parent != root.SpanID {
		t.Fatalf("wal.fsync missing or mis-parented (%+v); root %s", fsync, root.SpanID)
	}
	apply, ok := byName["shard.apply"]
	if !ok || apply.Parent != decode.SpanID {
		t.Fatalf("shard.apply missing or mis-parented (%+v); decode %s", apply, decode.SpanID)
	}

	// Exactly one shard.apply span: only the representative record carries
	// the span context through the queue.
	applies := 0
	for _, sd := range got.Spans {
		if sd.Name == "shard.apply" {
			applies++
		}
	}
	if applies != 1 {
		t.Fatalf("%d shard.apply spans for one batch, want 1", applies)
	}

	// The trace ID must be visible as an exemplar in the OpenMetrics view.
	omReq, _ := http.NewRequest(http.MethodGet, srv.URL()+PathMetrics, nil)
	omReq.Header.Set("Accept", "application/openmetrics-text")
	omResp, err := http.DefaultClient.Do(omReq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(omResp.Body)
	omResp.Body.Close()
	if !bytes.Contains(body, []byte(`trace_id="`+wantTrace+`"`)) {
		t.Fatalf("no exemplar for trace %s in OpenMetrics exposition:\n%s", wantTrace, body)
	}
	// The 0.0.4 view the golden tests pin must stay exemplar-free.
	samples := scrapeMetrics(t, srv)
	if v, ok := samples.Value("trace_kept_traces", nil); !ok || v < 1 {
		t.Fatalf("trace_kept_traces = %v,%v want >= 1", v, ok)
	}
}

func names(spans []trace.SpanData) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}

// TestUntracedServerHasNoTraceSurface pins the default-off contract: without
// a tracer the /traces route does not exist and ingest works unchanged.
func TestUntracedServerHasNoTraceSurface(t *testing.T) {
	srv := NewServer(Config{Shards: 1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(9))
	if offerRecords(srv.Aggregator(), testRecord(rng, "London", "starlink")) != 1 {
		t.Fatal("untraced offer refused")
	}
	resp, err := http.Get(srv.URL() + PathTraces)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /traces on untraced server: %d, want 404", resp.StatusCode)
	}
}

// TestHealthzPoisonIsPermanent extends the poisoned-WAL contract: once an
// fsync fails the writer never recovers — /healthz must answer 503 on every
// subsequent probe, even after the injected fault is cleared and more
// ingest is attempted.
func TestHealthzPoisonIsPermanent(t *testing.T) {
	fs := &syncFailFS{FS: wal.OSFS{}}
	tracer := trace.New(trace.Config{Seed: 7})
	srv, err := OpenServer(Config{
		Shards: 1,
		Tracer: tracer,
		WAL:    WALConfig{Dir: t.TempDir(), FS: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.hs.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(PathHealthz); code != http.StatusOK {
		t.Fatalf("healthy server: /healthz = %d, want 200", code)
	}

	fs.fail.Store(true)
	rng := rand.New(rand.NewSource(2))
	client := NewClient(srv.URL(), ClientConfig{BatchSize: 1})
	if err := client.AddRecord(testRecord(rng, "London", "starlink")); err == nil {
		client.Close()
	}

	// Clearing the fault must not resurrect the writer: poison is sticky.
	fs.fail.Store(false)
	for probe := 0; probe < 3; probe++ {
		if code := get(PathHealthz); code != http.StatusServiceUnavailable {
			t.Fatalf("probe %d after poison: /healthz = %d, want permanent 503", probe, code)
		}
		c2 := NewClient(srv.URL(), ClientConfig{BatchSize: 1})
		if err := c2.AddRecord(testRecord(rng, "Seattle", "starlink")); err == nil {
			if err := c2.Close(); err == nil {
				t.Fatal("ingest succeeded on a poisoned WAL")
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := srv.Aggregator().Health(); err == nil {
		t.Fatal("Health() must keep reporting the poisoned writer")
	}
	// The failed request's trace is error-tagged, so the tail sampler keeps
	// it even though it was never explicitly sampled.
	traces := tracer.Traces(0, 0)
	foundErr := false
	for _, tr := range traces {
		for _, sd := range tr.Spans {
			if sd.Error != "" {
				foundErr = true
			}
		}
	}
	if !foundErr {
		t.Fatal("poisoned ingest left no error span in the kept traces")
	}
}

// TestTracedRegistryPassesLint extends the naming gate over the tracer's
// scrape-time gauges.
func TestTracedRegistryPassesLint(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := OpenServer(Config{
		Shards:   1,
		Registry: reg,
		Tracer:   trace.New(trace.Config{Seed: 1}),
		WAL:      WALConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.agg.Close()
	if errs := obs.Lint(reg); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
}
