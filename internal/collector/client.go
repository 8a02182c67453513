package collector

import (
	"bytes"
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

// Wire names the ingest encoding a client puts on the wire. Columnar
// frames to PathIngestBatch are the only one; the type survives only
// because the benchmark's client configurations still name it.
type Wire int

// WireBatch, the zero Wire, sends columnar frames (dataset.MarshalBatch) to
// PathIngestBatch.
const WireBatch Wire = 0

// ClientConfig tunes the batching ingest client.
type ClientConfig struct {
	// Wire is ignored: every client sends frames. It goes once the
	// benchmark's client configurations stop setting it.
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
	// The reusable encoder's frame is valid until its next Encode, which
	// cannot happen before this post returns (both run under mu).
	frame := c.enc.Encode(c.ext)
	n := len(c.ext)
	c.ext = c.ext[:0]
	return c.post(frame, n)
}

// SendExtensionFrames posts pre-encoded columnar frames (concatenated
// dataset.MarshalBatch output) holding n records in total.
func (c *Client) SendExtensionFrames(payload []byte, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.post(payload, n)
}

// post sends a body of frames holding n records to PathIngestBatch.
func (c *Client) post(frames []byte, n int) error {
	const path = PathIngestBatch
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(frames))
	if err != nil {
		return fmt.Errorf("collector: post %s: %w", path, err)
	}
	req.Header.Set("Content-Type", BatchContentType)
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
