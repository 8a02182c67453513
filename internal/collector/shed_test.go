package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// TestShedApplyHysteresis drives the watermark state machine with synthetic
// signals: entry at the high watermarks, exit only once BOTH the queue has
// drained to the low watermark and the interval p99 has cleared half the
// latency watermark — no flapping at a threshold.
func TestShedApplyHysteresis(t *testing.T) {
	a := NewAggregator(Config{Shards: 1, QueueLen: 8, Registry: obs.NewRegistry()})
	defer a.Close()
	s := newShedder(a, ShedConfig{
		QueueHighPct:  0.8,
		AckLatencyP99: 100 * time.Millisecond,
	})
	if s.cfg.QueueLowPct != 0.4 {
		t.Fatalf("QueueLowPct default = %v, want QueueHighPct/2", s.cfg.QueueLowPct)
	}

	state := func() int32 { return s.state.Load() }
	if state() != shedAdmit {
		t.Fatal("fresh shedder must admit")
	}

	// Below both watermarks: stays admitting.
	s.apply(0.5, 0.01, true)
	if state() != shedAdmit {
		t.Fatalf("state %d after calm signals, want admit", state())
	}
	if reason, ok := s.admit(false); !ok || reason != "" {
		t.Fatalf("admit(false) while admitting = %q,%v", reason, ok)
	}

	// Queue crosses the high watermark.
	s.apply(0.85, 0.01, true)
	if state() != shedQueueDepth {
		t.Fatalf("state %d after fill 0.85, want queue_depth", state())
	}
	if reason, ok := s.admit(false); ok || reason != "queue_depth" {
		t.Fatalf("admit(false) while shedding = %q,%v", reason, ok)
	}
	if _, ok := s.admit(true); !ok {
		t.Fatal("sampled traffic must always be admitted")
	}

	// Drained below high but not below low: still shedding (hysteresis).
	s.apply(0.6, 0.01, true)
	if state() != shedQueueDepth {
		t.Fatalf("state %d at fill 0.6 (low=0.4), want still shedding", state())
	}
	// Queue clear but p99 at 90ms: >= half the 100ms watermark, not clear.
	s.apply(0.3, 0.09, true)
	if state() != shedQueueDepth {
		t.Fatalf("state %d with p99 90ms (exit needs <50ms), want still shedding", state())
	}
	// Both clear: back to admitting.
	s.apply(0.3, 0.01, true)
	if state() != shedAdmit {
		t.Fatalf("state %d after both signals cleared, want admit", state())
	}

	// Latency watermark trips independently of the queue.
	s.apply(0.1, 0.2, true)
	if state() != shedAckLatency {
		t.Fatalf("state %d with p99 200ms, want ack_latency", state())
	}
	if reason, ok := s.admit(false); ok || reason != "ack_latency" {
		t.Fatalf("admit(false) = %q,%v, want ack_latency shed", reason, ok)
	}
	// No acks this interval (p99ok=false) counts as clear: a quiet
	// collector is not overloaded.
	s.apply(0.1, 0, false)
	if state() != shedAdmit {
		t.Fatalf("state %d after quiet interval, want admit", state())
	}

	if got := s.transitions.Value(); got != 4 {
		t.Fatalf("transitions = %d, want 4", got)
	}
	if s.shedTotal[shedQueueDepth].Value() != 1 || s.shedTotal[shedAckLatency].Value() != 1 {
		t.Fatalf("shed counters = %d,%d, want 1,1",
			s.shedTotal[shedQueueDepth].Value(), s.shedTotal[shedAckLatency].Value())
	}
}

// TestShedUnarmedIsInvisible pins the default-off contract: no watermarks
// means no controller, every request admitted, and no shed series in the
// exposition.
func TestShedUnarmedIsInvisible(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAggregator(Config{Shards: 1, Registry: reg})
	defer a.Close()
	if a.shed != nil {
		t.Fatal("unarmed config must not start a shedder")
	}
	if reason, ok := a.Admit(false); !ok || reason != "" {
		t.Fatalf("Admit on unarmed aggregator = %q,%v", reason, ok)
	}
	if a.ShedState() != 0 {
		t.Fatalf("ShedState = %d, want 0", a.ShedState())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("collector_shed")) {
		t.Fatalf("unarmed exposition leaks shed series:\n%s", buf.String())
	}
}

// TestShedRejectAnnotatesRootSpan checks the reject path's observability:
// 429 + Retry-After on the wire, and a shed event + attribute on the
// request's root span so kept traces show where admission control cut in.
func TestShedRejectAnnotatesRootSpan(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 3})
	sp := tracer.StartRoot("http POST "+PathIngestBatch, trace.SpanContext{Sampled: true})
	r := httptest.NewRequest(http.MethodPost, PathIngestBatch, nil)
	r = r.WithContext(trace.NewContext(r.Context(), sp))
	w := httptest.NewRecorder()
	shedReject(w, r, "queue_depth")
	sp.Finish()

	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want 1", w.Header().Get("Retry-After"))
	}
	var reply struct {
		IngestReply
		Error string `json:"error"`
	}
	if err := json.NewDecoder(w.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != 0 || reply.Error == "" {
		t.Fatalf("shed reply = %+v, want zero counts and an error", reply)
	}

	traces := tracer.Traces(0, 0)
	if len(traces) != 1 {
		t.Fatalf("%d kept traces, want 1", len(traces))
	}
	root := traces[0].Spans[0]
	foundEvent, foundAttr := false, false
	for _, ev := range root.Events {
		if ev.Name == "shed" {
			foundEvent = true
		}
	}
	for _, at := range root.Attrs {
		if at.Key == "shed" && at.Value == "queue_depth" {
			foundAttr = true
		}
	}
	if !foundEvent || !foundAttr {
		t.Fatalf("shed event/attr missing on root span (event %v, attr %v): %+v",
			foundEvent, foundAttr, root)
	}
}

// TestShedOverloadKeepsSampledTraffic is the acceptance e2e (run under
// -race by make check): a single slow shard is flooded with unsampled
// ingest while sampled requests trickle in. The controller must trip on
// queue depth, shed some unsampled requests with 429, admit EVERY sampled
// request, land every sampled record in the snapshot, export
// collector_shed_total, and disarm once the flood stops.
func TestShedOverloadKeepsSampledTraffic(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 11})
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

	var (
		wg           sync.WaitGroup
		shed, served atomic.Int64
		sampledSent  atomic.Int64
	)
	// Unsampled flood: 8 writers hammering the one slow shard.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				switch code, _ := postBatch(t, hc, srv, rng, "London", "", 8); code {
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusOK:
					served.Add(1)
				default:
					t.Errorf("unsampled POST: status %d, want 200 or 429", code)
				}
			}
		}(int64(g))
	}
	// Sampled traffic: unique trace IDs, sampled bit set. Every one of
	// these must get through no matter how hard the flood pushes.
	const sampledPosts, perSampled = 40, 3
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + writer)))
			for i := 0; i < sampledPosts/4; i++ {
				tp := fmt.Sprintf("00-%032x-%016x-01", writer*1000+i+1, writer*1000+i+1)
				code, reply := postBatch(t, hc, srv, rng, "SampledCity", tp, perSampled)
				if code != http.StatusOK || reply.Accepted != perSampled {
					t.Errorf("sampled POST shed: status %d accepted %d, want 200/%d",
						code, reply.Accepted, perSampled)
					continue
				}
				sampledSent.Add(int64(perSampled))
			}
		}(g)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatalf("no unsampled request was shed (served %d); overload never tripped", served.Load())
	}
	t.Logf("unsampled: %d shed, %d served; sampled records: %d",
		shed.Load(), served.Load(), sampledSent.Load())

	// Every sampled record must reach the aggregate: shedding loses only
	// unwatched work. Each was acked, and a snapshot covers every acked
	// offer.
	want := sampledSent.Load()
	var got int64
	for _, g := range srv.Aggregator().Snapshot().Groups {
		if g.City == "SampledCity" {
			got += int64(g.Count)
		}
	}
	if got != want {
		t.Fatalf("sampled records in snapshot = %d, want %d", got, want)
	}

	// The shed counter is on the wire, and the controller disarms once the
	// flood is gone and the queue drains below the low watermark.
	samples := scrapeMetrics(t, srv)
	v, ok := samples.Value("collector_shed_total", map[string]string{"reason": "queue_depth"})
	if !ok || int64(v) != shed.Load() {
		t.Fatalf("collector_shed_total{reason=queue_depth} = %v,%v want %d", v, ok, shed.Load())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Aggregator().ShedState() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller still shedding (state %d) after drain", srv.Aggregator().ShedState())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
