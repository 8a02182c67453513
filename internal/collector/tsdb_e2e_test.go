package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/trace"
	"starlinkview/internal/tsdb"
)

// These are the embedded-tsdb acceptance e2es. They live in the collector
// package (not tsdb) because the overload harness needs the unexported
// applyDelay hook; the import is one-way — tsdb depends only on obs and
// trace, the collector knows nothing about the store.

// postBatch POSTs n fresh records in city as one frame through hc, with the
// traceparent header when one is given, and returns the status and, on a
// 200, the decoded reply. It reports failures with t.Error, so writer
// goroutines may call it.
//
// Tests that post from many goroutines give hc a transport of their own and
// close its idle connections before Shutdown: a transport shared with
// others keeps the spare connections a burst of requests dials, and
// Server.Shutdown waits 5 s before it counts a connection that never sent a
// request as idle.
func postBatch(t *testing.T, hc *http.Client, srv *Server, rng *rand.Rand, city, traceparent string, n int) (int, IngestReply) {
	t.Helper()
	records := make([]extension.Record, n)
	for i := range records {
		records[i] = testRecord(rng, city, "starlink")
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL()+PathIngestBatch, bytes.NewReader(dataset.MarshalBatch(records)))
	if err != nil {
		t.Error(err)
		return 0, IngestReply{}
	}
	req.Header.Set("Content-Type", BatchContentType)
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Error(err)
		return 0, IngestReply{}
	}
	defer resp.Body.Close()
	var reply IngestReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Error(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, reply
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestTSDBRateMatchesIngestRate is the query-correctness acceptance e2e:
// a tsdb scraping the collector's registry answers a range rate() over
// ingest_records_total that matches the true ingest rate. The scrape
// clock is driven by hand at exactly one interval apart, so the expected
// rate is exact: N records over one second.
func TestTSDBRateMatchesIngestRate(t *testing.T) {
	srv, err := OpenServer(Config{Shards: 2, QueueLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	transport := NewFrameTransport()
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	reg := srv.Aggregator().Registry()
	db, err := tsdb.Open(tsdb.Config{
		Source:         tsdb.RegistrySource(reg),
		ScrapeInterval: time.Hour, // ticks driven by hand
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv.Handle(tsdb.PathQuery, db.QueryHandler())
	srv.Handle(tsdb.PathAlerts, db.AlertsHandler())

	t0 := time.Now()
	db.Scrape(t0) // baseline: ingest_records_total = 0

	const posts, perPost = 3, 200
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < posts; i++ {
		if code, reply := postBatch(t, hc, srv, rng, "London", "", perPost); code != http.StatusOK || reply.Accepted != perPost {
			t.Fatalf("post %d: status %d accepted %d", i, code, reply.Accepted)
		}
	}
	// All records were ingested between the two ticks, one second apart
	// on the scrape clock: the true rate over that window is exactly N/s.
	t1 := t0.Add(time.Second)
	db.Scrape(t1)

	var qr tsdb.QueryReply
	url := fmt.Sprintf("%s%s?metric=ingest_records_total&fn=rate&from=%d&to=%d",
		srv.URL(), tsdb.PathQuery, t0.UnixMilli(), t1.UnixMilli())
	if code := getJSON(t, url, &qr); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if qr.Value == nil {
		t.Fatal("rate query returned no value")
	}
	want := float64(posts * perPost) // per second
	if math.Abs(*qr.Value-want) > 1e-6 {
		t.Fatalf("rate = %v rec/s, want %v", *qr.Value, want)
	}

	// The raw range over the counter shows both ticks.
	var raw tsdb.QueryReply
	url = fmt.Sprintf("%s%s?metric=ingest_records_total&fn=raw&from=%d&to=%d",
		srv.URL(), tsdb.PathQuery, t0.UnixMilli(), t1.UnixMilli())
	getJSON(t, url, &raw)
	total := 0
	for _, s := range raw.Series {
		total += len(s.Samples)
	}
	if total < 2 {
		t.Fatalf("raw range returned %d samples, want >= 2", total)
	}

	// Unknown fn and missing metric are client errors, not 500s.
	resp, err := http.Get(srv.URL() + tsdb.PathQuery + "?metric=x&fn=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus fn: status %d, want 400", resp.StatusCode)
	}
}

// TestAlertFiresUnderOverload is the alerting acceptance e2e (run under
// -race by make check, beside the shed e2e it mirrors): the shed overload
// harness floods a deliberately slow collector until 429s flow, while an
// embedded tsdb scrapes the registry every 25ms and evaluates a burn-rate
// rule over collector_shed_total vs http_requests_total. The alert must
// walk inactive -> pending -> firing while the flood runs (served at GET
// /alerts, mirrored in the alerts_firing gauge, and traced as a forced-
// sampled root span), then resolve once the flood stops.
func TestAlertFiresUnderOverload(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 23})
	srv, err := OpenServer(Config{
		Shards:     1,
		QueueLen:   4,
		Tracer:     tracer,
		applyDelay: 2 * time.Millisecond,
		Shed: ShedConfig{
			QueueHighPct: 0.5,
			EvalInterval: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	transport := NewFrameTransport()
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	reg := srv.Aggregator().Registry()
	rule := tsdb.Rule{
		Name: "ingest-shed-burn", Kind: tsdb.KindBurnRate,
		BadMetric:   "collector_shed_total",
		TotalMetric: "http_requests_total",
		// 10% error budget, 2x burn trigger: fires once more than 20% of
		// requests in both windows are shed — far below flood reality.
		Objective:     0.9,
		Factor:        2,
		ShortWindow:   tsdb.Duration(300 * time.Millisecond),
		LongWindow:    tsdb.Duration(time.Second),
		For:           tsdb.Duration(100 * time.Millisecond),
		KeepFiringFor: tsdb.Duration(200 * time.Millisecond),
	}
	db, err := tsdb.Open(tsdb.Config{
		Source:         tsdb.RegistrySource(reg),
		ScrapeInterval: 25 * time.Millisecond,
		Registry:       reg,
		Rules:          []tsdb.Rule{rule},
		Tracer:         tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv.Handle(tsdb.PathQuery, db.QueryHandler())
	srv.Handle(tsdb.PathAlerts, db.AlertsHandler())

	alertState := func() tsdb.AlertState {
		var ar tsdb.AlertsReply
		if code := getJSON(t, srv.URL()+tsdb.PathAlerts, &ar); code != http.StatusOK {
			t.Fatalf("/alerts status %d", code)
		}
		if len(ar.Alerts) != 1 {
			t.Fatalf("%d alerts, want 1", len(ar.Alerts))
		}
		return ar.Alerts[0]
	}
	if st := alertState(); st.State != "inactive" {
		t.Fatalf("fresh alert state %q, want inactive", st.State)
	}

	// Flood with unsampled traffic until the alert fires: 8 writers
	// against one slow shard, exactly the shed e2e's overload shape.
	stopFlood := make(chan struct{})
	var wg sync.WaitGroup
	var shed429 atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				if code, _ := postBatch(t, hc, srv, rng, "London", "", 8); code == http.StatusTooManyRequests {
					shed429.Add(1)
				}
			}
		}(int64(g))
	}

	deadline := time.Now().Add(20 * time.Second)
	sawFiring := false
	for time.Now().Before(deadline) {
		if st := alertState(); st.State == "firing" {
			sawFiring = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawFiring {
		close(stopFlood)
		wg.Wait()
		t.Fatalf("alert never fired (shed 429s: %d)", shed429.Load())
	}
	if shed429.Load() == 0 {
		t.Fatal("alert fired with no 429s flowing")
	}
	// Firing is only reachable through pending, so the walk is proven;
	// the gauge must agree with /alerts while the page is up.
	if v, ok := scrapeMetrics(t, srv).Value("alerts_firing", map[string]string{"rule": rule.Name}); !ok || v != 1 {
		t.Fatalf("alerts_firing{rule=%s} = %v,%v while firing, want 1", rule.Name, v, ok)
	}

	close(stopFlood)
	wg.Wait()

	// With the flood gone the burn clears; pending hysteresis and window
	// drain bound how long resolution takes.
	resolved := false
	for time.Now().Before(deadline) {
		if st := alertState(); st.State == "inactive" {
			resolved = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !resolved {
		t.Fatalf("alert never resolved after the flood stopped: %+v", alertState())
	}
	if st := alertState(); st.Transitions < 3 {
		t.Fatalf("transitions = %d, want >= 3 (pending, firing, resolved)", st.Transitions)
	}
	if v, ok := scrapeMetrics(t, srv).Value("alerts_firing", map[string]string{"rule": rule.Name}); !ok || v != 0 {
		t.Fatalf("alerts_firing = %v,%v after resolve, want 0", v, ok)
	}

	// Both transitions were traced as forced-sampled roots.
	alertTraces := 0
	for _, tr := range tracer.Traces(0, 0) {
		for _, sp := range tr.Spans {
			if sp.Name == "tsdb.alert" {
				alertTraces++
			}
		}
	}
	if alertTraces < 2 {
		t.Fatalf("%d tsdb.alert spans kept, want >= 2 (firing + resolved)", alertTraces)
	}
}
