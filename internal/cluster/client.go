package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/trace"
)

// Routing policies for the cluster client.
const (
	// RouteRing sends every record straight to its ring owner — the
	// aligned mode where no server-side forwarding happens at all.
	RouteRing = "ring"
	// RouteRR sprays batches round-robin across targets and relies on the
	// servers' forward-on-misroute to place records; it needs no ring
	// agreement, at the cost of one extra hop for most records.
	RouteRR = "rr"
)

// ClientConfig parameterises the cluster-aware ingest client.
type ClientConfig struct {
	// Targets are the instances' advertise addresses (host:port).
	Targets []string
	// Route is RouteRing (default) or RouteRR.
	Route string
	// VNodes must match the servers' ring (DefaultVNodes when <= 0); only
	// meaningful with RouteRing.
	VNodes int
	// Wire selects the extension-record encoding per target POST:
	// collector.WireCSV (default) or collector.WireBatch, which ships each
	// per-owner buffer as one columnar frame to /ingest/batch.
	Wire collector.Wire
	// BatchSize flushes a per-target buffer at this many records
	// (default 512).
	BatchSize int
	// Retries resends a failed batch this many times (default 2). A batch
	// is retried verbatim: the ingest protocol is at-least-once, and a
	// refused connection means the records were definitely not applied.
	Retries int
	// RetryBackoff sleeps between attempts (default 50ms, doubling).
	RetryBackoff time.Duration
	// PaceRetries bounds how many consecutive 429 responses a single batch
	// absorbs as pacing (default 8, negative disables pacing). A paced
	// resend honours the server's Retry-After with jitter and does not
	// consume a Retries attempt: backpressure is flow control, not failure.
	PaceRetries int
	// OnPace, when set, observes every pacing pause with the sleep about to
	// be taken — the campaign driver counts these as campaign_paced_total.
	OnPace func(d time.Duration)
	// HTTPClient overrides the transport. By default the client builds its
	// own on collector.NewFrameTransport and closes its idle connections on
	// Close.
	HTTPClient *http.Client
	// Tracer, when set, spans each send; a retry's span links back to the
	// failed attempt's context, chaining the attempts for the trace view.
	Tracer *trace.Tracer
}

// ClientStats summarise a cluster client's sends.
type ClientStats struct {
	Records   uint64 `json:"records"`
	Batches   uint64 `json:"batches"`
	Retries   uint64 `json:"retries"`
	Paced     uint64 `json:"paced"`
	Forwarded uint64 `json:"forwarded"`
}

// Client routes records to a cluster of collector instances. With
// RouteRing it buffers per target by ring owner, so an aligned cluster
// never forwards; with RouteRR it distributes batches evenly and lets the
// servers sort ownership out. Unlike collector.Client it keeps every batch
// until the server acknowledges it, so a transient send failure loses
// nothing. Not safe for concurrent use; give each producer its own client.
type Client struct {
	cfg   ClientConfig
	ring  *Ring
	ext   map[string][]extension.Record
	enc   dataset.BatchEncoder
	rr    int
	stats ClientStats

	transport *http.Transport // built by NewClient when cfg.HTTPClient is nil
}

// NewClient builds a client over cfg.Targets.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("cluster: client needs at least one target")
	}
	switch cfg.Route {
	case "", RouteRing:
		cfg.Route = RouteRing
	case RouteRR:
	default:
		return nil, fmt.Errorf("cluster: unknown route policy %q", cfg.Route)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.PaceRetries == 0 {
		cfg.PaceRetries = 8
	} else if cfg.PaceRetries < 0 {
		cfg.PaceRetries = 0
	}
	c := &Client{cfg: cfg, ext: make(map[string][]extension.Record)}
	if cfg.HTTPClient == nil {
		c.transport = collector.NewFrameTransport()
		c.cfg.HTTPClient = &http.Client{Transport: c.transport}
	}
	if cfg.Route == RouteRing {
		c.ring = NewRing(cfg.Targets, cfg.VNodes)
	}
	return c, nil
}

// target picks where a record goes: its ring owner, or the next target in
// round-robin order.
func (c *Client) target(k1, k2 string) string {
	if c.ring != nil {
		return c.ring.Owner(k1, k2)
	}
	t := c.cfg.Targets[c.rr%len(c.cfg.Targets)]
	c.rr++
	return t
}

// AddRecord buffers one browsing record, flushing its target's buffer when
// full.
func (c *Client) AddRecord(r extension.Record) error {
	t := c.target(r.City, r.ISP)
	c.ext[t] = append(c.ext[t], r)
	if len(c.ext[t]) >= c.cfg.BatchSize {
		return c.flushExt(t)
	}
	return nil
}

// Flush sends every pending buffer.
func (c *Client) Flush() error {
	for t := range c.ext {
		if err := c.flushExt(t); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes whatever remains and closes the idle connections of the
// transport the client built, if it built one.
func (c *Client) Close() error {
	err := c.Flush()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	return err
}

// Stats returns the client's send counters.
func (c *Client) Stats() ClientStats { return c.stats }

func (c *Client) flushExt(t string) error {
	if len(c.ext[t]) == 0 {
		return nil
	}
	path, contentType := collector.PathIngestExtension, collector.ExtensionContentType
	var payload []byte
	var err error
	if c.cfg.Wire == collector.WireBatch {
		path, contentType = collector.PathIngestBatch, collector.BatchContentType
		// The reusable encoder's frame is valid until the next Encode; send
		// (including every retry, which resends the same payload) finishes
		// before another flush can run.
		payload = c.enc.Encode(c.ext[t])
	} else if payload, err = collector.EncodeExtensionBatch(c.ext[t]); err != nil {
		return err
	}
	reply, err := c.send(t, path, contentType, payload, len(c.ext[t]))
	if err != nil {
		return err
	}
	// Acked: only now may the buffer go.
	c.stats.Batches++
	c.stats.Records += uint64(len(c.ext[t]))
	c.stats.Forwarded += uint64(reply.Forwarded)
	c.ext[t] = c.ext[t][:0]
	return nil
}

// pacePause is the jittered backoff a 429 earns: uniform in [d/2, 3d/2)
// around the server's Retry-After hint, so a fleet of paced senders does not
// re-arrive in lockstep and re-trigger the shed watermark together.
func pacePause(d time.Duration) time.Duration {
	if d <= 0 {
		d = time.Second
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// send posts one batch with retries. Each attempt gets its own span; a
// retry's span links to the previous attempt's context, so the trace view
// shows the chain end to end even though each attempt is its own trace.
//
// A 429 is handled as backpressure, not failure: the client sleeps the
// server's (jittered) Retry-After and resends, up to PaceRetries times per
// batch, without consuming a Retries attempt. Only transport errors and
// non-429 statuses burn retries.
func (c *Client) send(target, path, contentType string, payload []byte, records int) (collector.IngestReply, error) {
	var reply collector.IngestReply
	var lastErr error
	var prev trace.SpanContext
	backoff := c.cfg.RetryBackoff
	attempt, paced := 0, 0
	for {
		var sp *trace.Span
		if c.cfg.Tracer != nil {
			sp = c.cfg.Tracer.StartRoot("cluster.client.send", trace.SpanContext{})
			sp.SetAttr("target", target)
			sp.SetInt("records", int64(records))
			sp.SetInt("attempt", int64(attempt))
			if attempt > 0 || paced > 0 {
				reason := "retry"
				if paced > 0 && attempt == 0 {
					reason = "paced"
				}
				sp.AddLink(prev, trace.Str("reason", reason), trace.Int("attempt", int64(attempt)))
			}
			prev = sp.Context()
		}
		reply, lastErr = c.post(target, path, contentType, payload, sp)
		sp.SetError(lastErr)
		sp.Finish()
		if lastErr == nil {
			return reply, nil
		}
		if d, ok := collector.IsOverloaded(lastErr); ok && paced < c.cfg.PaceRetries {
			paced++
			c.stats.Paced++
			pause := pacePause(d)
			if c.cfg.OnPace != nil {
				c.cfg.OnPace(pause)
			}
			time.Sleep(pause)
			continue
		}
		if attempt >= c.cfg.Retries {
			break
		}
		attempt++
		c.stats.Retries++
		time.Sleep(backoff)
		backoff *= 2
	}
	return reply, fmt.Errorf("cluster: send to %s after %d attempts: %w",
		target, attempt+1, lastErr)
}

func (c *Client) post(target, path, contentType string, payload []byte, sp *trace.Span) (collector.IngestReply, error) {
	var reply collector.IngestReply
	req, err := http.NewRequest(http.MethodPost, "http://"+target+path, bytes.NewReader(payload))
	if err != nil {
		return reply, err
	}
	req.Header.Set("Content-Type", contentType)
	if sp != nil {
		req.Header.Set(trace.TraceparentHeader, sp.Context().Traceparent())
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return reply, collector.NewOverloadedError(resp, string(msg))
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return reply, fmt.Errorf("%s: %s", resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return reply, err
	}
	return reply, nil
}
