package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// The cluster-wide observability plane: any instance answers for the whole
// cluster. GET /cluster/metrics fans out to every live peer's /metrics,
// merges the expositions (obs.MergeExpositions: counters and histogram
// buckets sum exactly, gauges keep per-peer children under an `instance`
// label) and re-exposes one deterministic exposition. GET /cluster/traces
// lists the union of the peers' tail-sampled rings, and
// GET /cluster/traces/{id} stitches the spans of one trace across the
// forward hop into a single tree (trace.Assemble) that tools/traceview
// renders as a cross-instance waterfall.
const (
	PathClusterMetrics = "/cluster/metrics"
	PathClusterTraces  = "/cluster/traces"
)

// obsplaneMetrics instrument the federation endpoints themselves.
type obsplaneMetrics struct {
	metricsFanouts      *obs.Counter
	metricsFanoutErrors *obs.Counter
	metricsMergeLatency *obs.Histogram
	traceFanouts        *obs.Counter
	traceFanoutErrors   *obs.Counter
}

func newObsplaneMetrics(reg *obs.Registry) *obsplaneMetrics {
	return &obsplaneMetrics{
		metricsFanouts: reg.Counter("cluster_metrics_fanouts_total",
			"Federated /cluster/metrics queries served."),
		metricsFanoutErrors: reg.Counter("cluster_metrics_fanout_errors_total",
			"Federated metrics queries that failed on a peer scrape or merge."),
		metricsMergeLatency: reg.Histogram("cluster_metrics_merge_latency_seconds",
			"Wall time of one federated metrics query: fan-out, parse and merge.",
			obs.NativeBuckets(2, 1e-3, 40)),
		traceFanouts: reg.Counter("cluster_trace_fanouts_total",
			"Cross-instance trace queries served (list and stitch)."),
		traceFanoutErrors: reg.Counter("cluster_trace_fanout_errors_total",
			"Cross-instance trace queries that failed on a peer pull."),
	}
}

// handleClusterMetrics serves the merged cluster exposition.
func (n *Node) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	merged, err := n.MergedMetrics(rootSpan(r))
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = merged.WriteText(w)
}

// MergedMetrics scrapes every live member (the local registry answers for
// self without a network hop) and merges the expositions. Any live peer
// failing fails the whole scrape — a partial merge would silently
// undercount the very counters the scrape exists to report.
func (n *Node) MergedMetrics(parent *trace.Span) (*obs.MergedExposition, error) {
	start := time.Now()
	n.obsMet.metricsFanouts.Inc()
	live := n.mem.Live()
	instances := make([]obs.Instance, len(live))
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, addr := range live {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			instances[i].Name = addr
			if addr == n.cfg.Self {
				var buf bytes.Buffer
				if err := n.cfg.Server.Aggregator().Registry().WritePrometheus(&buf); err != nil {
					errs[i] = err
					return
				}
				instances[i].Exposition, errs[i] = obs.ParseExposition(&buf)
				return
			}
			instances[i].Exposition, errs[i] = n.fetchMetrics(addr, parent)
		}(i, addr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			n.obsMet.metricsFanoutErrors.Inc()
			return nil, fmt.Errorf("cluster: merged metrics: peer %s: %w", live[i], err)
		}
	}
	merged, err := obs.MergeExpositions(instances)
	if err != nil {
		n.obsMet.metricsFanoutErrors.Inc()
		return nil, fmt.Errorf("cluster: merged metrics: %w", err)
	}
	n.obsMet.metricsMergeLatency.Observe(time.Since(start).Seconds())
	return merged, nil
}

// MetricsSource adapts the federated merge into a tsdb scrape source: a
// coordinator's embedded store then retains cluster-wide series, not just
// its own. Each call fans out to the live membership (untraced — the
// scrape tick is periodic background work, not a request) and renders the
// merged exposition into a reused buffer.
func (n *Node) MetricsSource() func() ([]byte, error) {
	var buf bytes.Buffer
	return func() ([]byte, error) {
		merged, err := n.MergedMetrics(nil)
		if err != nil {
			return nil, err
		}
		buf.Reset()
		if err := merged.WriteText(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// fetchMetrics scrapes one peer's /metrics exposition.
func (n *Node) fetchMetrics(addr string, parent *trace.Span) (e *obs.ScrapedExposition, err error) {
	if n.cfg.Tracer != nil && parent != nil {
		sp := n.cfg.Tracer.StartChild(parent.Context(), "cluster.fetch_metrics")
		sp.SetAttr("peer", addr)
		defer func() {
			sp.SetError(err)
			sp.Finish()
		}()
	}
	body, err := n.fetch(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return obs.ParseExposition(body)
}

// fetch GETs a peer endpoint under the node's request timeout.
func (n *Node) fetch(addr, path string) (io.ReadCloser, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := timeoutContext(n.cfg.RequestTimeout)
	resp, err := n.client.Do(req.WithContext(ctx))
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, msg)
	}
	return &cancelReadCloser{ReadCloser: resp.Body, cancel: cancel}, nil
}

type cancelReadCloser struct {
	io.ReadCloser
	cancel func()
}

func (c *cancelReadCloser) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// ClusterTraceInfo is one row of the GET /cluster/traces listing: a trace
// visible somewhere in the cluster, with the instances holding spans of it.
type ClusterTraceInfo struct {
	ID         string   `json:"id"`
	DurationNS int64    `json:"duration_ns"`
	Spans      int      `json:"spans"`
	Instances  []string `json:"instances"`
}

// handleClusterTraces lists the union of every live member's kept traces.
func (n *Node) handleClusterTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit := 64
	if v := r.URL.Query().Get("limit"); v != "" {
		lim, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad limit: "+err.Error())
			return
		}
		limit = lim
	}
	sources, err := n.traceSources(rootSpan(r))
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	byID := map[string]*ClusterTraceInfo{}
	for _, src := range sources {
		for _, tr := range src.Traces {
			info := byID[tr.ID]
			if info == nil {
				info = &ClusterTraceInfo{ID: tr.ID}
				byID[tr.ID] = info
			}
			if int64(tr.Duration) > info.DurationNS {
				info.DurationNS = int64(tr.Duration)
			}
			info.Spans += len(tr.Spans)
			if len(info.Instances) == 0 || info.Instances[len(info.Instances)-1] != src.Instance {
				info.Instances = append(info.Instances, src.Instance)
			}
		}
	}
	out := make([]ClusterTraceInfo, 0, len(byID))
	for _, info := range byID {
		sort.Strings(info.Instances)
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurationNS != out[j].DurationNS {
			return out[i].DurationNS > out[j].DurationNS
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	collector.WriteJSON(w, http.StatusOK, struct {
		Traces []ClusterTraceInfo `json:"traces"`
	}{out})
}

// handleClusterTrace serves GET /cluster/traces/{id}: the trace's spans
// pulled from every live member and stitched into one tree.
// ?format=jsonl streams the capture format tools/traceview reads.
func (n *Node) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, PathClusterTraces+"/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "want /cluster/traces/{id}")
		return
	}
	tr, ok, err := n.StitchedTrace(id, rootSpan(r))
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "trace not held by any live instance")
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		collector.WriteJSON(w, http.StatusOK, tr)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, []trace.Trace{tr})
	default:
		httpError(w, http.StatusBadRequest, "unknown format (want json or jsonl)")
	}
}

// StitchedTrace pulls every live member's ring and assembles the trace.
func (n *Node) StitchedTrace(id string, parent *trace.Span) (trace.Trace, bool, error) {
	sources, err := n.traceSources(parent)
	if err != nil {
		return trace.Trace{}, false, err
	}
	tr, ok := trace.Assemble(id, sources)
	return tr, ok, nil
}

// traceSources pulls the kept-trace rings of every live member; the local
// tracer answers for self. Cross-instance tracing requires every instance
// to run with tracing enabled — a peer without /traces fails the pull.
func (n *Node) traceSources(parent *trace.Span) ([]trace.Source, error) {
	if n.cfg.Tracer == nil {
		return nil, fmt.Errorf("cluster: tracing disabled on this instance")
	}
	n.obsMet.traceFanouts.Inc()
	live := n.mem.Live()
	sources := make([]trace.Source, len(live))
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, addr := range live {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			sources[i].Instance = addr
			if addr == n.cfg.Self {
				sources[i].Traces = n.cfg.Tracer.Traces(0, 0)
				return
			}
			sources[i].Traces, errs[i] = n.fetchTraces(addr, parent)
		}(i, addr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			n.obsMet.traceFanoutErrors.Inc()
			return nil, fmt.Errorf("cluster: trace pull: peer %s: %w", live[i], err)
		}
	}
	return sources, nil
}

// fetchTraces pulls one peer's full kept-trace ring (limit=0 = everything;
// the ring is bounded by the peer's -trace-capacity).
func (n *Node) fetchTraces(addr string, parent *trace.Span) (traces []trace.Trace, err error) {
	if n.cfg.Tracer != nil && parent != nil {
		sp := n.cfg.Tracer.StartChild(parent.Context(), "cluster.fetch_traces")
		sp.SetAttr("peer", addr)
		defer func() {
			sp.SetError(err)
			sp.Finish()
		}()
	}
	body, err := n.fetch(addr, collector.PathTraces+"?format=jsonl&limit=0")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return trace.ReadJSONL(body)
}
