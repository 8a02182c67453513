package collector

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
)

// Wire selects the extension-record encoding a client puts on the wire.
type Wire int

const (
	// WireCSV sends headerless dataset CSV rows to PathIngestExtension
	// (default).
	WireCSV Wire = iota
	// WireBatch sends columnar frames (dataset.MarshalBatch) to
	// PathIngestBatch — the fast path for high-volume streams.
	WireBatch
)

// String implements fmt.Stringer.
func (w Wire) String() string {
	switch w {
	case WireCSV:
		return "csv"
	case WireBatch:
		return "batch"
	default:
		return fmt.Sprintf("wire(%d)", int(w))
	}
}

// ParseWire converts a CLI flag value to a Wire.
func ParseWire(s string) (Wire, error) {
	switch s {
	case "csv":
		return WireCSV, nil
	case "batch":
		return WireBatch, nil
	default:
		return 0, fmt.Errorf("collector: unknown wire format %q (want csv or batch)", s)
	}
}

// ClientConfig tunes the batching ingest client.
type ClientConfig struct {
	// Wire selects the extension-record encoding (default WireCSV).
	Wire Wire
	// BatchSize flushes a buffer once it holds this many records
	// (default 512).
	BatchSize int
	// FlushEvery flushes non-empty buffers on this period even when they
	// are short of BatchSize (default 200ms). Zero disables the timer;
	// flushes then happen on size and on Close only.
	FlushEvery time.Duration
	// HTTPClient overrides the transport. By default the client builds its
	// own on NewFrameTransport and closes its idle connections on Close.
	HTTPClient *http.Client
	// Traceparent, if set, runs once per POST; a non-empty result is sent
	// as the W3C traceparent header, so a traced server parents its spans
	// under the caller's trace (and keeps it, when the sampled flag is
	// set). Return "" to leave a request unsampled.
	Traceparent func() string
}

func (c *ClientConfig) normalize() {
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
}

// frameWriteBuffer is the per-connection write buffer of NewFrameTransport.
// net/http sends a request body larger than the write buffer (4 KiB by
// default) through a freshly allocated copy buffer of up to 32 KiB on every
// POST; a body that fits is copied straight into the buffer. 64 KiB holds a
// 1024-record frame, about 40 KiB, with room to spare.
const frameWriteBuffer = 64 << 10

// NewFrameTransport is http.DefaultTransport's configuration with a write
// buffer that holds an ingest frame, so POSTing one allocates no copy
// buffer. Whoever builds one closes its idle connections when done.
func NewFrameTransport() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		t = &http.Transport{}
	}
	t = t.Clone()
	t.WriteBufferSize = frameWriteBuffer
	return t
}

// ClientStats summarise a client's sends. Latencies are wall-clock per
// POST, in microseconds.
type ClientStats struct {
	Records uint64
	Batches uint64
	Latency *stats.QuantileSketch
}

// Client batches records and ships them to a collector Server. Adds flush
// on size; a background timer flushes stragglers on ClientConfig.FlushEvery;
// Close flushes whatever remains. Safe for use by one goroutine at a time
// (loadgen gives each worker its own client).
type Client struct {
	base string
	cfg  ClientConfig

	mu      sync.Mutex
	ext     []extension.Record
	enc     dataset.BatchEncoder
	records uint64
	batches uint64
	latency *stats.QuantileSketch

	transport *http.Transport // built by NewClient when cfg.HTTPClient is nil

	stop chan struct{}
	done chan struct{}
}

// NewClient builds a client for the server at baseURL (e.g. Server.URL()).
func NewClient(baseURL string, cfg ClientConfig) *Client {
	cfg.normalize()
	lat, _ := stats.NewQuantileSketch(stats.DefaultSketchRelErr)
	c := &Client{
		base:    baseURL,
		cfg:     cfg,
		latency: lat,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.HTTPClient == nil {
		c.transport = NewFrameTransport()
		c.cfg.HTTPClient = &http.Client{Transport: c.transport}
	}
	go c.flushLoop()
	return c
}

func (c *Client) flushLoop() {
	defer close(c.done)
	if c.cfg.FlushEvery <= 0 {
		<-c.stop
		return
	}
	t := time.NewTicker(c.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Timer flushes are best-effort; Add and Close surface errors.
			_ = c.Flush()
		case <-c.stop:
			return
		}
	}
}

// AddRecord buffers one browsing record, flushing if the batch is full.
func (c *Client) AddRecord(r extension.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ext = append(c.ext, r)
	if len(c.ext) >= c.cfg.BatchSize {
		return c.flushExtLocked()
	}
	return nil
}

// Flush sends the pending buffer.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushExtLocked()
}

func (c *Client) flushExtLocked() error {
	if len(c.ext) == 0 {
		return nil
	}
	if c.cfg.Wire == WireBatch {
		// The reusable encoder's frame is valid until its next Encode, which
		// cannot happen before this post returns (both run under mu).
		frame := c.enc.Encode(c.ext)
		n := len(c.ext)
		c.ext = c.ext[:0]
		return c.post(PathIngestBatch, BatchContentType, bytes.NewReader(frame), n)
	}
	payload, err := EncodeExtensionBatch(c.ext)
	if err != nil {
		return err
	}
	n := len(c.ext)
	c.ext = c.ext[:0]
	return c.post(PathIngestExtension, ExtensionContentType, bytes.NewReader(payload), n)
}

// EncodeExtensionBatch renders records as one wire payload, the body a
// single POST to PathIngestExtension carries. Load generators encode their
// replay set once and resend the payloads, keeping the client side cheap.
func EncodeExtensionBatch(records []extension.Record) ([]byte, error) {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, r := range records {
		if err := cw.Write(dataset.MarshalExtensionRow(r)); err != nil {
			return nil, fmt.Errorf("collector: encode: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, fmt.Errorf("collector: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// SendExtensionBatch posts a pre-encoded batch of n records, bypassing the
// client's buffer but sharing its latency and throughput accounting.
func (c *Client) SendExtensionBatch(payload []byte, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.post(PathIngestExtension, ExtensionContentType, bytes.NewReader(payload), n)
}

// SendExtensionFrames posts pre-encoded columnar frames (concatenated
// dataset.MarshalBatch output) holding n records in total.
func (c *Client) SendExtensionFrames(payload []byte, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.post(PathIngestBatch, BatchContentType, bytes.NewReader(payload), n)
}

func (c *Client) post(path, contentType string, body io.Reader, n int) error {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, body)
	if err != nil {
		return fmt.Errorf("collector: post %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	if c.cfg.Traceparent != nil {
		if tp := c.cfg.Traceparent(); tp != "" {
			req.Header.Set(trace.TraceparentHeader, tp)
		}
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("collector: post %s: %w", path, err)
	}
	defer resp.Body.Close()
	c.latency.Add(float64(time.Since(start)) / float64(time.Microsecond))
	c.batches++
	c.records += uint64(n)
	if resp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("collector: post %s: %w", path, NewOverloadedError(resp, string(msg)))
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("collector: post %s: %s: %s", path, resp.Status, msg)
	}
	// Drain so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// Stats returns a copy of the client's send counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{Records: c.records, Batches: c.batches, Latency: c.latency.Clone()}
}

// Close stops the flush timer, sends anything still buffered, and closes
// the idle connections of the transport the client built, if it built one.
func (c *Client) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	err := c.Flush()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	return err
}
