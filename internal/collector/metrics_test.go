package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"

	"starlinkview/internal/obs"
	"starlinkview/internal/wal"
)

// scrapeMetrics GETs the server's /metrics and parses the exposition.
func scrapeMetrics(t *testing.T, srv *Server) obs.Samples {
	t.Helper()
	resp, err := http.Get(srv.URL() + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsMatchClientTotals is the end-to-end accounting check: every
// record a client was told was accepted must appear in ingest_records_total,
// with zero drops, and the ack-latency histogram must have counted exactly
// the acknowledged batches. Runs over a WAL so the durability series are
// exercised too.
func TestMetricsMatchClientTotals(t *testing.T) {
	srv, err := OpenServer(Config{
		Shards: 4,
		WAL:    WALConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	client := NewClient(srv.URL(), ClientConfig{BatchSize: 100})
	const n = 1700
	for i := 0; i < n; i++ {
		city := []string{"London", "Seattle", "Sydney"}[rng.Intn(3)]
		if err := client.AddRecord(testRecord(rng, city, "starlink")); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	cs := client.Stats()
	if cs.Records != n {
		t.Fatalf("client sent %d records, want %d", cs.Records, n)
	}

	// Acceptance is synchronous with the ack; processing drains async, and
	// a snapshot returns only once every acked record is applied.
	srv.Aggregator().Snapshot()
	samples := scrapeMetrics(t, srv)
	if samples.Sum("collector_processed_records_total", nil) < n {
		t.Fatalf("shards processed %v of %d records after a snapshot",
			samples.Sum("collector_processed_records_total", nil), n)
	}

	if got := samples.Sum("ingest_records_total", nil); got != float64(cs.Records) {
		t.Fatalf("ingest_records_total %v, want %d", got, cs.Records)
	}
	if got := samples.Sum("ingest_records_total", map[string]string{"source": "extension"}); got != n {
		t.Fatalf(`ingest_records_total{source="extension"} %v, want %d`, got, n)
	}
	if got := samples.Sum("ingest_dropped_records_total", nil); got != 0 {
		t.Fatalf("ingest_dropped_records_total %v, want 0", got)
	}
	if got := samples.Sum("ingest_ack_latency_seconds_count", nil); got != float64(cs.Batches) {
		t.Fatalf("ack histogram counted %v batches, client acked %d", got, cs.Batches)
	}
	if got := samples.Sum("http_requests_total",
		map[string]string{"path": PathIngestBatch, "code": "200"}); got != float64(cs.Batches) {
		t.Fatalf("http_requests_total for ingest %v, want %d", got, cs.Batches)
	}
	// One WAL append per frame: each 100-row request is one frame.
	if got := samples.Sum("wal_appends_total", nil); got != float64(cs.Batches) {
		t.Fatalf("wal_appends_total %v, want one per request, %d", got, cs.Batches)
	}
	if got := samples.Sum("wal_fsyncs_total", nil); got < 1 {
		t.Fatalf("wal_fsyncs_total %v, want >= 1", got)
	}
	if v, ok := samples.Value("collector_ready", nil); !ok || v != 1 {
		t.Fatalf("collector_ready %v (present %v), want 1", v, ok)
	}
	// Per-shard accounting: every shard's accepted counter equals its
	// processed counter once drained.
	for sh := 0; sh < 4; sh++ {
		lbl := map[string]string{"shard": strconv.Itoa(sh)}
		acc := samples.Sum("ingest_records_total", lbl)
		proc := samples.Sum("collector_processed_records_total", lbl)
		if acc != proc {
			t.Fatalf("shard %d: accepted %v != processed %v", sh, acc, proc)
		}
	}

	// /stats must be the same numbers — it is rendered from the same
	// registry children.
	var st StatsReply
	if err := getTestJSON(srv.URL()+PathStats, &st); err != nil {
		t.Fatal(err)
	}
	if float64(st.Accepted) != samples.Sum("ingest_records_total", nil) ||
		float64(st.Processed) != samples.Sum("collector_processed_records_total", nil) ||
		float64(st.Dropped) != 0 {
		t.Fatalf("/stats %+v disagrees with /metrics", st)
	}
	if st.WAL == nil || st.WAL.Syncs != uint64(samples.Sum("wal_fsyncs_total", nil)) {
		t.Fatalf("/stats WAL %+v disagrees with wal_fsyncs_total", st.WAL)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func getTestJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// syncFailFS delegates to the real filesystem but makes segment Sync fail
// once armed — the smallest fault that poisons the WAL writer.
type syncFailFS struct {
	wal.FS
	fail atomic.Bool
}

func (fs *syncFailFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &syncFailFile{File: f, fs: fs}, nil
}

func (fs *syncFailFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &syncFailFile{File: f, fs: fs}, nil
}

type syncFailFile struct {
	wal.File
	fs *syncFailFS
}

func (f *syncFailFile) Sync() error {
	if f.fs.fail.Load() {
		return errSyncFault
	}
	return f.File.Sync()
}

var errSyncFault = &faultErr{"injected fsync failure"}

type faultErr struct{ msg string }

func (e *faultErr) Error() string { return e.msg }

// TestHealthzTurnsUnhealthyOnPoisonedWAL drives the liveness contract: a
// healthy collector answers 200, and the first failed fsync — after which
// the writer refuses all further appends — flips /healthz to 503 so a
// supervisor pulls the instance before it silently loses data.
func TestHealthzTurnsUnhealthyOnPoisonedWAL(t *testing.T) {
	fs := &syncFailFS{FS: wal.OSFS{}}
	srv, err := OpenServer(Config{
		Shards: 1,
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

	// Arm the fault and push a batch through: the ack path's fsync fails,
	// the batch is refused with a 5xx, and the writer is now poisoned.
	fs.fail.Store(true)
	rng := rand.New(rand.NewSource(1))
	client := NewClient(srv.URL(), ClientConfig{BatchSize: 1})
	if err := client.AddRecord(testRecord(rng, "London", "starlink")); err == nil {
		client.Close() // flush may carry the error instead
	}

	if code := get(PathHealthz); code != http.StatusServiceUnavailable {
		t.Fatalf("poisoned WAL: /healthz = %d, want 503", code)
	}
	if err := srv.Aggregator().Health(); err == nil {
		t.Fatal("Health() must report the poisoned writer")
	}
}

// TestCollectordRegistryPassesLint is the naming gate over the fully wired
// surface: every family the collector, WAL and runtime register must obey
// the Prometheus conventions the linter enforces.
func TestCollectordRegistryPassesLint(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	srv, err := OpenServer(Config{
		Shards:   2,
		Registry: reg,
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

// TestStatsEndpointUsesRegistry pins the satellite refactor: /stats no
// longer has its own counters, so hammering ingest while scraping /stats
// can never yield accepted < processed skew beyond queue lag.
func TestStatsEndpointUsesRegistry(t *testing.T) {
	srv := NewServer(Config{Shards: 2})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		offerRecords(srv.Aggregator(), testRecord(rng, "London", "starlink"))
	}
	var st StatsReply
	if err := getTestJSON(srv.URL()+PathStats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 500 {
		t.Fatalf("accepted %d, want 500", st.Accepted)
	}
	if st.WAL != nil {
		t.Fatal("WAL stats on a WAL-less server")
	}
	if len(st.Shards) != 2 {
		t.Fatalf("got %d shard entries, want 2", len(st.Shards))
	}
	reg := srv.Aggregator().Registry()
	if got := sumRegistryCounter(t, reg, "ingest_records_total"); got != 500 {
		t.Fatalf("registry ingest_records_total %v, want 500", got)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// sumRegistryCounter totals a family's children by rendering the registry
// in place — no HTTP round-trip.
func sumRegistryCounter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	ss, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ss.Sum(name, nil)
}
