package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"starlinkview/internal/trace"
)

// Paths of the server's endpoints. Browsing records travel one way, as
// columnar batch frames POSTed to PathIngestBatch.
const (
	PathIngestBatch = "/ingest/batch"
	PathSnapshot    = "/snapshot"
	PathStats       = "/stats"
	PathMetrics     = "/metrics"
	PathHealthz     = "/healthz"
	PathTraces      = "/traces"

	// pathUnmatched is the path label of a request no endpoint matched; one
	// value for every such path keeps the label set bounded.
	pathUnmatched = "unmatched"

	// BatchContentType is the ingest body MIME type, exported so cluster
	// forwarding speaks the same wire protocol. Its bodies are concatenated
	// dataset batch frames (dataset.MarshalBatch).
	BatchContentType = "application/x-starlink-batch"
)

// HeaderForwarded marks an ingest POST as a cluster forward. A batch
// carrying it is applied locally whatever the receiver's ring says — the
// terminal hop of the forward-on-misroute protocol, which guarantees a
// record is never relayed twice even when two instances hold different
// ring views.
const HeaderForwarded = "X-Starlinkview-Forwarded"

// Connection limits of the ingest listener. They bound what a client that
// stalls can hold open — not request bodies, which legitimately stream for as
// long as a campaign chunk takes. Constants, not Config fields: no deployment
// of this collector needs them different.
const (
	// readHeaderTimeout is how long a client may take to send its request
	// line and headers before the connection is closed.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout closes keep-alive connections with no request in flight.
	// It exceeds net/http's default client-side idle timeout (90 s), so a
	// default client retires an idle connection before the server does and
	// never races a POST against the close.
	idleTimeout = 2 * time.Minute
)

// IngestReply is the server's response to an ingest POST. Forwarded counts
// records that belonged to another cluster instance and were relayed there
// (and accepted) before this acknowledgement.
type IngestReply struct {
	Accepted  int `json:"accepted"`
	Dropped   int `json:"dropped"`
	Forwarded int `json:"forwarded,omitempty"`
}

// Forwarder routes misrouted records to their owning cluster instance; the
// implementation lives in internal/cluster. OwnerExtension returns the
// owning peer's advertise address, or "" when this instance owns the key —
// the check the ingest handler makes per (city, ISP) group. ForwardFrame
// delivers concatenated batch frames holding the given number of misrouted
// browsing records (what the ingest handler's split produces)
// synchronously and returns how many the owner accepted; the ingest
// acknowledgement waits on it, so a 200 means every record in the batch is
// owned (and, with WALs, durable) somewhere.
type Forwarder interface {
	OwnerExtension(city, isp string) string
	ForwardFrame(peer string, frames []byte, records int, parent trace.SpanContext) (int, error)
}

// Server exposes an Aggregator over local HTTP.
type Server struct {
	agg *Aggregator
	hs  *http.Server
	mux *http.ServeMux
	lis net.Listener
	err chan error

	// fwdMu guards fwd: SetForwarder runs once at cluster start-up, readers
	// resolve it once per ingest request.
	fwdMu sync.RWMutex
	fwd   Forwarder

	// splitters pools the batch handler's frameSplitters; only requests
	// routed through a forwarder take one.
	splitters sync.Pool
}

// NewServer builds a server around a fresh aggregator with the given
// configuration. For WAL-enabled configurations use OpenServer, whose
// startup (log recovery) can fail.
func NewServer(cfg Config) *Server {
	s, err := OpenServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenServer builds a server around OpenAggregator: with Config.WAL set it
// recovers the durable state before serving, and every ingest batch is
// acknowledged only after its records are fsynced.
func OpenServer(cfg Config) (*Server, error) {
	agg, err := OpenAggregator(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{agg: agg, err: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc(PathIngestBatch, s.instrument(PathIngestBatch, s.handleIngestBatch))
	mux.HandleFunc(PathSnapshot, s.instrument(PathSnapshot, s.handleSnapshot))
	mux.HandleFunc(PathStats, s.instrument(PathStats, s.handleStats))
	mux.HandleFunc(PathMetrics, s.instrument(PathMetrics, agg.Registry().Handler().ServeHTTP))
	mux.HandleFunc(PathHealthz, s.instrument(PathHealthz, s.handleHealthz))
	if cfg.Tracer != nil {
		mux.HandleFunc(PathTraces, s.instrument(PathTraces, trace.Handler(cfg.Tracer).ServeHTTP))
	}
	// The mux's own 404s get metrics and a span too, so a client posting to
	// a wrong or removed path shows up.
	mux.HandleFunc("/", s.instrument(pathUnmatched, http.NotFound))
	s.mux = mux
	s.hs = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	if cfg.headerTimeout > 0 {
		s.hs.ReadHeaderTimeout = cfg.headerTimeout
	}
	return s, nil
}

// Handle registers an additional handler on the server's mux, instrumented
// with the same per-path HTTP metrics and root spans as the built-in
// endpoints. The cluster layer mounts /cluster/* this way.
func (s *Server) Handle(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, s.instrument(path, h))
}

// SetForwarder makes the ingest handler cluster-aware: each decoded record
// is checked against the forwarder's ring and relayed to its owner when it
// does not belong here. Call before traffic arrives.
func (s *Server) SetForwarder(f Forwarder) {
	s.fwdMu.Lock()
	s.fwd = f
	s.fwdMu.Unlock()
}

func (s *Server) forwarder() Forwarder {
	s.fwdMu.RLock()
	defer s.fwdMu.RUnlock()
	return s.fwd
}

// statusWriter remembers the status code a handler sent so the HTTP
// metrics can label requests with it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the http_requests_total and
// http_request_duration_seconds series for its path, and — with a tracer
// configured — opens the request's root span, continuing an incoming W3C
// traceparent (so a load generator's forced-sample flag survives into the
// tail sampler's keep decision).
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	m := s.agg.met
	duration := m.httpDuration.With(path)
	tracer := s.agg.cfg.Tracer
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var sp *trace.Span
		if tracer != nil {
			parent, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
			sp = tracer.StartRoot("http "+r.Method+" "+path, parent)
			sp.SetAttr("path", path)
			r = r.WithContext(trace.NewContext(r.Context(), sp))
		}
		h(sw, r)
		duration.Observe(time.Since(start).Seconds())
		m.httpRequests.With(path, strconv.Itoa(sw.status)).Inc()
		if sp != nil {
			sp.SetInt("status", int64(sw.status))
			if sw.status >= http.StatusInternalServerError {
				sp.SetError(fmt.Errorf("http status %d", sw.status))
			}
			sp.Finish()
		}
	}
}

// Aggregator returns the server's aggregation core.
func (s *Server) Aggregator() *Aggregator { return s.agg }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("collector: listen: %w", err)
	}
	s.lis = lis
	go func() {
		if err := s.hs.Serve(lis); err != nil && err != http.ErrServerClosed {
			s.err <- err
		}
	}()
	return nil
}

// Addr returns the bound listen address, once Start has succeeded.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests finish, then every shard queue drains (and, with a WAL, a final
// checkpoint is written). After it returns, Snapshot reflects every
// accepted record.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if cerr := s.agg.Close(); err == nil {
		err = cerr
	}
	select {
	case serveErr := <-s.err:
		return serveErr
	default:
	}
	return err
}

// admitIngest asks the shed controller whether the request may enter. The
// sampled bit rides the request's traceparent: via the root span when
// tracing is on, parsed straight off the header otherwise — so a frame
// body carries its keep-this signal in-band.
func (s *Server) admitIngest(r *http.Request) (string, bool) {
	if s.agg.shed == nil {
		return "", true
	}
	return s.agg.shed.admit(requestSampled(r))
}

// requestSampled derives the request's traceparent sampled bit.
func requestSampled(r *http.Request) bool {
	if root := trace.FromContext(r.Context()); root != nil {
		return root.Context().Sampled
	}
	sc, err := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
	return err == nil && sc.Sampled
}

// shedReject answers a shed request: 429 + Retry-After, a zero reply (no
// record entered), and a shed event on the root span so the kept traces
// show exactly when admission control cut in.
func shedReject(w http.ResponseWriter, r *http.Request, reason string) {
	if root := trace.FromContext(r.Context()); root != nil {
		root.Event("shed", trace.Str("reason", reason))
		root.SetAttr("shed", reason)
	}
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusTooManyRequests, struct {
		IngestReply
		Error string `json:"error"`
	}{IngestReply{}, "overloaded: unsampled request shed (" + reason + ")"})
}

// SnapshotReply is the GET /snapshot payload: the merged aggregates plus
// the same city table the batch pipeline prints, for cross-checking
// cmd/starlinkbench results against streamed ingestion.
type SnapshotReply struct {
	TakenAt   time.Time  `json:"taken_at"`
	Snapshot  *Snapshot  `json:"snapshot"`
	CityTable []CityJSON `json:"city_table"`
}

// CityJSON mirrors extension.TableRow with JSON-safe fields (a city whose
// classes have no records yet would otherwise render NaN medians).
type CityJSON struct {
	City              string  `json:"city"`
	StarlinkReqs      int     `json:"starlink_reqs"`
	StarlinkDomains   int     `json:"starlink_domains"`
	StarlinkMedianPTT float64 `json:"starlink_median_ptt_ms"`
	NonSLReqs         int     `json:"non_sl_reqs"`
	NonSLDomains      int     `json:"non_sl_domains"`
	NonSLMedianPTT    float64 `json:"non_sl_median_ptt_ms"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.agg.Snapshot()
	WriteJSON(w, http.StatusOK, SnapshotReply{
		TakenAt:   time.Now().UTC(),
		Snapshot:  snap,
		CityTable: snap.CityTableJSON(),
	})
}

// CityTableJSON renders the snapshot's per-city table in the JSON-safe form
// /snapshot serves; the cluster merged-query endpoint reuses it so a merged
// snapshot and a single-instance one are comparable field for field.
func (s *Snapshot) CityTableJSON() []CityJSON {
	rows := s.CityTable(s.Cities())
	out := slices.Grow([]CityJSON(nil), len(rows))
	for _, row := range rows {
		out = append(out, CityJSON{
			City:              row.City,
			StarlinkReqs:      row.StarlinkReqs,
			StarlinkDomains:   row.StarlinkDomains,
			StarlinkMedianPTT: nanZero(row.StarlinkMedianPTT),
			NonSLReqs:         row.NonSLReqs,
			NonSLDomains:      row.NonSLDomains,
			NonSLMedianPTT:    nanZero(row.NonSLMedianPTT),
		})
	}
	return out
}

// StatsReply is the GET /stats payload. WAL is present only on durable
// servers.
type StatsReply struct {
	Accepted  uint64       `json:"accepted"`
	Dropped   uint64       `json:"dropped"`
	Processed uint64       `json:"processed"`
	Shards    []ShardStats `json:"shards"`
	WAL       *WALStats    `json:"wal,omitempty"`
}

// handleStats derives the JSON from the same registry children /metrics
// renders — shard counters are read in place, no snapshot round-trip.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.agg.Stats())
}

// handleHealthz answers 200 once startup recovery completed and the WAL
// writer is healthy, 503 otherwise (e.g. a failed fsync poisoned the
// writer: nothing further can be made durable, so the collector should be
// pulled from rotation).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.agg.Health(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unhealthy: %v\n", err)
		return
	}
	fmt.Fprintln(w, "ok")
}

// replyBufs recycles reply buffers: a /snapshot reply runs to hundreds of
// kilobytes, and reads arrive beside the write path.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON writes v as a JSON reply with the given status. It encodes v in
// full before it commits the status, so a value JSON cannot carry (a NaN,
// say) answers 500 with an error body instead of 200 with an empty one. The
// cluster endpoints reply through it too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(struct {
			Error string `json:"error"`
		}{fmt.Sprintf("encode reply: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
