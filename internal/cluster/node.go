package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// Cluster endpoints, mounted on the collector server's mux.
const (
	PathClusterState    = "/cluster/state"
	PathClusterSnapshot = "/cluster/snapshot"
	PathClusterRing     = "/cluster/ring"
)

// NodeConfig parameterises one cluster instance.
type NodeConfig struct {
	// Server is the local collector this node wraps. The node mounts the
	// /cluster/* endpoints on it and installs itself as the server's
	// forwarder.
	Server *collector.Server
	// Self is this instance's advertise address (host:port) — what peers
	// and clients dial, and its ring identity. It must match the listen
	// address peers can actually reach.
	Self string
	// Peers are the other instances' advertise addresses.
	Peers []string
	// VNodes per ring member; every instance and ring-routing client must
	// agree (DefaultVNodes when <= 0).
	VNodes int
	// ProbeInterval enables liveness probing (zero = static membership).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 2s).
	ProbeTimeout time.Duration
	// RequestTimeout bounds one forward or fan-out request (default 10s).
	RequestTimeout time.Duration
	// HTTPClient overrides the transport for probes, forwards and fan-outs.
	// When nil the node builds a transport of its own for its peers (not
	// http.DefaultTransport), sized for forward bodies, and Close closes its
	// idle connections.
	HTTPClient *http.Client
	// Tracer, when set, spans forwards (as children of the ingest request
	// that triggered them) and merged-query fan-outs.
	Tracer *trace.Tracer
}

// Node makes one collectord instance cluster-aware: it owns the membership
// view, answers the cluster query endpoints, and forwards misrouted ingest
// records to their ring owner on the local server's behalf.
type Node struct {
	cfg       NodeConfig
	mem       *Membership
	client    *http.Client
	transport *http.Transport // built by NewNode when cfg.HTTPClient is nil
	met       *nodeMetrics
	obsMet    *obsplaneMetrics
}

// nodeMetrics are the per-instance cluster series, registered next to the
// collector's own metrics.
type nodeMetrics struct {
	misrouted      *obs.Counter
	forwardRecords *obs.CounterVec
	forwardBatches *obs.CounterVec
	forwardErrors  *obs.CounterVec
	forwardLatency *obs.HistogramVec
	ringLive       *obs.Gauge
	ringDead       *obs.Gauge
	ringRebuilds   *obs.Counter
	fanouts        *obs.Counter
	fanoutErrors   *obs.Counter
	mergeLatency   *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		misrouted: reg.Counter("cluster_misrouted_records_total",
			"Ingested records owned by another instance and forwarded there."),
		forwardRecords: reg.CounterVec("cluster_forwarded_records_total",
			"Records forwarded to each peer and accepted by it.", "peer"),
		forwardBatches: reg.CounterVec("cluster_forward_batches_total",
			"Forward POSTs sent to each peer.", "peer"),
		forwardErrors: reg.CounterVec("cluster_forward_errors_total",
			"Forward POSTs to each peer that failed.", "peer"),
		forwardLatency: reg.HistogramVec("cluster_forward_latency_seconds",
			"Forward round-trip latency per peer (exponential native-histogram grid).",
			obs.NativeBuckets(1, 1e-4, 36), "peer"),
		ringLive: reg.Gauge("cluster_ring_live_members",
			"Members currently on the ring."),
		ringDead: reg.Gauge("cluster_ring_dead_members",
			"Members failing liveness probes, excluded from the ring."),
		ringRebuilds: reg.Counter("cluster_ring_rebuilds_total",
			"Ring rebuilds caused by liveness changes (plus the initial build)."),
		fanouts: reg.Counter("cluster_snapshot_fanouts_total",
			"Merged-query fan-outs served."),
		fanoutErrors: reg.Counter("cluster_snapshot_fanout_errors_total",
			"Merged-query fan-outs that failed on a peer fetch or merge."),
		mergeLatency: reg.Histogram("cluster_snapshot_merge_latency_seconds",
			"Wall time of one merged query: fan-out, decode and merge.",
			obs.NativeBuckets(2, 1e-3, 40)),
	}
}

// NewNode wires a collector server into the cluster: builds membership (and
// its probe loop), registers cluster metrics and endpoints, and installs
// the forwarder. Call after Server.Start so Self is routable, and Close on
// shutdown.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: NodeConfig.Server is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	n := &Node{cfg: cfg, client: cfg.HTTPClient}
	if n.client == nil {
		// A peer's forward body is about a third of a 1024-record frame,
		// 14 KiB, past net/http's default 4 KiB write buffer.
		n.transport = collector.NewFrameTransport()
		n.client = &http.Client{Transport: n.transport}
	}
	n.met = newNodeMetrics(cfg.Server.Aggregator().Registry())
	n.obsMet = newObsplaneMetrics(cfg.Server.Aggregator().Registry())
	mem, err := NewMembership(MembershipConfig{
		Self:          cfg.Self,
		Peers:         cfg.Peers,
		VNodes:        cfg.VNodes,
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		HTTPClient:    n.client,
		OnRebuild: func(_ *Ring, live, dead int) {
			n.met.ringLive.Set(float64(live))
			n.met.ringDead.Set(float64(dead))
			n.met.ringRebuilds.Inc()
		},
	})
	if err != nil {
		return nil, err
	}
	n.mem = mem
	cfg.Server.Handle(PathClusterState, n.handleState)
	cfg.Server.Handle(PathClusterSnapshot, n.handleSnapshot)
	cfg.Server.Handle(PathClusterRing, n.handleRing)
	cfg.Server.Handle(PathClusterMetrics, n.handleClusterMetrics)
	cfg.Server.Handle(PathClusterTraces, n.handleClusterTraces)
	cfg.Server.Handle(PathClusterTraces+"/", n.handleClusterTrace)
	cfg.Server.SetForwarder(n)
	return n, nil
}

// Membership exposes the node's membership view (tests drive Probe through
// it).
func (n *Node) Membership() *Membership { return n.mem }

// Close stops the probe loop and closes the idle peer connections of the
// transport the node built, if it built one. The wrapped server is shut
// down separately.
func (n *Node) Close() {
	n.mem.Close()
	if n.transport != nil {
		n.transport.CloseIdleConnections()
	}
}

// owner maps a ring owner to a forward target: "" when this instance owns
// the key (or the ring is empty, when applying locally beats dropping).
func (n *Node) owner(addr string) string {
	if addr == n.cfg.Self {
		return ""
	}
	return addr
}

// OwnerExtension implements collector.Forwarder: the browsing keyspace is
// partitioned by (city, ISP), the aggregation group key.
func (n *Node) OwnerExtension(city, isp string) string {
	return n.owner(n.mem.Ring().Owner(city, isp))
}

// forwardFrameRecords caps the records per frame ForwardExtension encodes,
// so a large record slice travels as several concatenated frames, each
// inside the frame-body and WAL-payload bounds, rather than one the owner
// would have to reject or split.
const forwardFrameRecords = 1 << 15

// ForwardExtension relays browsing records to their owner as batch frames
// and returns how many it accepted. No ingest handler calls it — both
// browsing wires forward the frames their split builds, with ForwardFrame —
// but benchmark/other_layers.go times it, both ends, under
// cluster.forward_ns_per_record.
func (n *Node) ForwardExtension(peer string, recs []extension.Record, parent trace.SpanContext) (int, error) {
	var enc dataset.BatchEncoder
	var frames []byte
	for rest := recs; len(rest) > 0; {
		k := min(len(rest), forwardFrameRecords)
		frames = append(frames, enc.Encode(rest[:k])...)
		rest = rest[k:]
	}
	return n.ForwardFrame(peer, frames, len(recs), parent)
}

// ForwardFrame relays concatenated batch frames holding the given number of
// misrouted records to their owner's /ingest/batch. The POST carries
// HeaderForwarded, so the owner applies the frames whatever its own ring
// says — the terminal hop — through the same view path as first-hop ingest:
// one WAL append per frame.
func (n *Node) ForwardFrame(peer string, frames []byte, records int, parent trace.SpanContext) (int, error) {
	return n.forward(peer, collector.PathIngestBatch, collector.BatchContentType,
		frames, records, parent)
}

func (n *Node) forward(peer, path, contentType string, payload []byte, records int, parent trace.SpanContext) (accepted int, err error) {
	start := time.Now()
	var sp *trace.Span
	if n.cfg.Tracer != nil {
		sp = n.cfg.Tracer.StartChild(parent, "cluster.forward")
		sp.SetAttr("peer", peer)
		sp.SetInt("records", int64(records))
		defer func() {
			sp.SetError(err)
			sp.Finish()
		}()
	}
	n.met.misrouted.Add(uint64(records))
	n.met.forwardBatches.With(peer).Inc()
	defer func() {
		n.met.forwardLatency.With(peer).Observe(time.Since(start).Seconds())
		if err != nil {
			n.met.forwardErrors.With(peer).Inc()
		} else {
			n.met.forwardRecords.With(peer).Add(uint64(accepted))
		}
	}()

	req, err := http.NewRequest(http.MethodPost, "http://"+peer+path, bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("cluster: forward to %s: %w", peer, err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(collector.HeaderForwarded, n.cfg.Self)
	if sp != nil {
		req.Header.Set(trace.TraceparentHeader, sp.Context().Traceparent())
	}
	ctx, cancel := timeoutContext(n.cfg.RequestTimeout)
	defer cancel()
	resp, err := n.client.Do(req.WithContext(ctx))
	if err != nil {
		return 0, fmt.Errorf("cluster: forward to %s: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("cluster: forward to %s: %s: %s", peer, resp.Status, msg)
	}
	var reply collector.IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return 0, fmt.Errorf("cluster: forward to %s: decode reply: %w", peer, err)
	}
	if reply.Dropped > 0 {
		// The owner acked but shed load; the batch is not fully owned
		// anywhere, so the original sender must not see a 200.
		return reply.Accepted, fmt.Errorf("cluster: forward to %s: %d records dropped", peer, reply.Dropped)
	}
	return reply.Accepted, nil
}

// handleState serves this instance's complete mergeable aggregate state.
func (n *Node) handleState(w http.ResponseWriter, r *http.Request) {
	st, err := n.cfg.Server.Aggregator().Snapshot().ExportState()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("export state: %v", err))
		return
	}
	collector.WriteJSON(w, http.StatusOK, st)
}

// RingReply is the GET /cluster/ring payload. Version is decimal-encoded
// as a string (a raw uint64 does not survive JSON number parsing in every
// consumer); equal strings across instances mean converged routing.
type RingReply struct {
	Self    string        `json:"self"`
	VNodes  int           `json:"vnodes"`
	Version string        `json:"version"`
	Members []MemberState `json:"members"`
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	ring := n.mem.Ring()
	vn := n.cfg.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	collector.WriteJSON(w, http.StatusOK, RingReply{
		Self:    n.cfg.Self,
		VNodes:  vn,
		Version: strconv.FormatUint(ring.Version(), 10),
		Members: n.mem.States(),
	})
}

// MergedReply is the GET /cluster/snapshot payload: the snapshot a single
// instance would serve had it ingested every record the listed peers hold,
// rendered through the same row and city-table code paths as /snapshot.
type MergedReply struct {
	TakenAt   time.Time            `json:"taken_at"`
	Peers     []string             `json:"peers"`
	Snapshot  *collector.Snapshot  `json:"snapshot"`
	CityTable []collector.CityJSON `json:"city_table"`
}

func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	reply, err := n.MergedSnapshot(rootSpan(r))
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	collector.WriteJSON(w, http.StatusOK, reply)
}

// MergedSnapshot fans the state query out to every live member (the local
// aggregator answers for self, skipping a network hop) and merges the
// results. Any live peer failing fails the whole query: a partial merge
// would silently undercount, and the caller can retry after the next probe
// round excises the dead peer.
func (n *Node) MergedSnapshot(parent *trace.Span) (*MergedReply, error) {
	start := time.Now()
	n.met.fanouts.Inc()
	live := n.mem.Live()
	states := make([]collector.MergeState, len(live))
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, addr := range live {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			if addr == n.cfg.Self {
				states[i], errs[i] = n.cfg.Server.Aggregator().Snapshot().ExportState()
				return
			}
			states[i], errs[i] = n.fetchState(addr, parent)
		}(i, addr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			n.met.fanoutErrors.Inc()
			return nil, fmt.Errorf("cluster: merged snapshot: peer %s: %w", live[i], err)
		}
	}
	snap, err := collector.MergeStates(states...)
	if err != nil {
		n.met.fanoutErrors.Inc()
		return nil, fmt.Errorf("cluster: merged snapshot: %w", err)
	}
	n.met.mergeLatency.Observe(time.Since(start).Seconds())
	peers := append([]string(nil), live...)
	sort.Strings(peers)
	return &MergedReply{
		TakenAt:   time.Now().UTC(),
		Peers:     peers,
		Snapshot:  snap,
		CityTable: snap.CityTableJSON(),
	}, nil
}

// fetchState pulls one peer's mergeable state, spanned as a child of the
// merged query's root span when tracing.
func (n *Node) fetchState(addr string, parent *trace.Span) (st collector.MergeState, err error) {
	if n.cfg.Tracer != nil && parent != nil {
		sp := n.cfg.Tracer.StartChild(parent.Context(), "cluster.fetch_state")
		sp.SetAttr("peer", addr)
		defer func() {
			sp.SetError(err)
			sp.Finish()
		}()
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+PathClusterState, nil)
	if err != nil {
		return st, err
	}
	ctx, cancel := timeoutContext(n.cfg.RequestTimeout)
	defer cancel()
	resp, err := n.client.Do(req.WithContext(ctx))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, fmt.Errorf("state fetch: %s: %s", resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("state decode: %w", err)
	}
	return st, nil
}

// rootSpan returns the request's root span (nil when untraced).
func rootSpan(r *http.Request) *trace.Span {
	return trace.FromContext(r.Context())
}

func httpError(w http.ResponseWriter, status int, msg string) {
	collector.WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
