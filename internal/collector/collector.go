// Package collector is the measurement-ingest service that turns the
// reproduction's 28-user replay into collection infrastructure: a concurrent
// front end that accepts the study's anonymised browser-extension records,
// in the encodings internal/dataset releases them in, over a local HTTP
// endpoint, and aggregates them online.
//
// The aggregation core is sharded: records hash by (city, ISP) onto N
// shards, each owned by a single goroutine fed from a bounded channel, so
// no aggregate state is ever shared between goroutines. Each shard keeps
// streaming per-(city, ISP) statistics — exact counts, sums and domain
// sets, plus a bounded-error quantile sketch (stats.QuantileSketch) for
// PTT percentiles — that converge to the batch pipeline's answers
// (extension.Collector.CityTable) within the sketch's error bound.
//
// Overload behaviour is explicit: with the Block policy a full shard queue
// exerts backpressure on the producer (and, through the HTTP server, on the
// client's TCP connection); with DropNewest the record is shed and counted.
// Closing the aggregator drains every queue before the final snapshot, so a
// graceful shutdown loses nothing that was accepted.
package collector

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/obs"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// Policy selects what a full shard queue does to new records.
type Policy int

const (
	// Block makes Offer wait for queue space: backpressure propagates to
	// the producer (for HTTP ingest, to the sender's connection).
	Block Policy = iota
	// DropNewest sheds the incoming record and counts it as dropped.
	DropNewest
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a CLI flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return DropNewest, nil
	default:
		return 0, fmt.Errorf("collector: unknown policy %q (want block or drop)", s)
	}
}

// Config parameterises the ingest service.
type Config struct {
	// Shards is the number of single-goroutine aggregation shards
	// (default 4).
	Shards int
	// QueueLen is each shard's bounded queue length (default 1024).
	QueueLen int
	// Policy is the full-queue behaviour (default Block).
	Policy Policy
	// SketchRelErr is the quantile sketches' guaranteed relative error
	// (default stats.DefaultSketchRelErr, 1%).
	SketchRelErr float64
	// Registry receives every metric the collector exposes (nil allocates
	// a private registry). One registry serves one aggregator: sharing a
	// registry between aggregators would merge their per-shard series.
	Registry *obs.Registry
	// WAL, when Dir is set, makes ingest durable: records are logged
	// before they are enqueued and recovered on the next start. Requires
	// the Block policy — with DropNewest, a logged-then-shed record would
	// resurrect on replay.
	WAL WALConfig
	// Tracer, when set, spans the ingest path end to end: the HTTP server
	// opens a root span per request (continuing an incoming traceparent),
	// and batch decode, WAL append, group-commit fsync and shard apply
	// report as children. Nil disables tracing at one pointer test per
	// site.
	Tracer *trace.Tracer
	// Shed arms the trace-driven admission controller (see shed.go): when
	// queue depth or interval ack-latency p99 crosses its watermark,
	// unsampled ingest requests are shed while sampled/forced traffic is
	// always admitted. The zero value disables it.
	Shed ShedConfig

	// applyDelay slows each record application; tests use it to force
	// queue pressure deterministically.
	applyDelay time.Duration
	// replayWorkers, when positive, replaces GOMAXPROCS as the number of
	// goroutines that parse logged frames during recovery (see replayWAL).
	replayWorkers int
	// headerTimeout, when positive, replaces the listener's
	// readHeaderTimeout, so a test of it need not wait the full bound.
	headerTimeout time.Duration
}

func (c *Config) normalize() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.SketchRelErr <= 0 {
		c.SketchRelErr = stats.DefaultSketchRelErr
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// itemKind discriminates what a shard queue carries: browsing records, as
// row slices of a batch view, or a mark. A shard handles its queue in
// order, so a mark covers every offer that returned before it was queued.
type itemKind uint8

const (
	// itemBatch carries a slice of rows of a shared zero-copy batch view
	// (see batch.go).
	itemBatch itemKind = iota
	// itemMark carries no records: a shard passes it once it has applied
	// everything queued before it, snapshotting itself into the mark's
	// header on the way if asked (see Aggregator.mark). Snapshot,
	// Checkpoint and the end of replay wait for marks.
	itemMark
)

// item is one queued batch slice (or mark), stamped at enqueue so
// shards can measure ingest latency (time spent queued before application).
// span is valid only on a request's representative item (the first
// accepted one): the shard opens a single shard.apply span per request from
// it, so the per-record hot path pays one Valid() branch, not one span.
// Every queue slot holds an item whether or not it is in use, so it is kept
// small (TestQueueItemSize). rows indexes batch.view; the shard applies them
// all, then releases its reference on the shared view.
type item struct {
	enqueued time.Time
	span     trace.SpanContext
	kind     itemKind
	batch    *batchApply
	rows     []int32
}

// Aggregator is the sharded online-aggregation core.
type Aggregator struct {
	cfg    Config
	shards []*shard
	met    *metrics
	ready  atomic.Bool

	// mu orders Offer/Snapshot (read side) against Close and Checkpoint
	// (write side), so channels are never sent on after they are closed
	// and checkpoints see a quiesced intake.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// shed is the armed admission controller (nil when Config.Shed is
	// zero, which keeps the unarmed ingest path untouched).
	shed *shedder

	// views pools zero-copy batch views (and owns the shared string
	// interner) for the pipelined ingest fast path; applyPool recycles the
	// batchApply fan-out headers and their row partitions, and pairPool the
	// pairIndex scratch that numbers a view's (city, ISP) groups, held only
	// while a partition is built.
	views     dataset.ViewPool
	applyPool sync.Pool
	pairPool  sync.Pool

	// window is non-nil only while the log replays: one token per view
	// handed to the shards and not yet applied by all of them, at most
	// replayWindow (see replayView). windowPeak is the most tokens it held
	// as a view was handed over, and ringPeak the most records the replay
	// ring held read and not yet handed over, a bound on its views (see
	// replayPipe); only the replaying goroutine writes either.
	window     chan struct{}
	windowPeak int
	ringPeak   int

	// Durability (nil / zero without a WAL).
	wal         *wal.Writer
	walRecovery WALRecovery
	ckptLSN     atomic.Uint64
	ckptStop    chan struct{}
	ckptDone    chan struct{}
}

// NewAggregator starts the shard goroutines and returns the aggregator.
// It panics on an invalid durable configuration; WAL-enabled callers
// should use OpenAggregator, whose startup can fail on real I/O.
func NewAggregator(cfg Config) *Aggregator {
	a, err := OpenAggregator(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// OpenAggregator builds the aggregator and, when Config.WAL.Dir is set,
// opens the write-ahead log and recovers. The last checkpoint's aggregates
// are restored straight into the shard maps; then the shard goroutines
// start, and the log tail replays through their queues exactly as live
// ingest arrives: parse workers decode the next frames while the shards
// apply earlier ones, in log order. The aggregator is ready, and returned,
// only once every shard has applied everything replayed: it already
// reflects every record that was durable before the previous crash or
// shutdown.
func OpenAggregator(cfg Config) (*Aggregator, error) {
	opened := time.Now()
	cfg.normalize()
	// The shards build their sketches without checking; check the error once.
	if _, err := stats.NewQuantileSketch(cfg.SketchRelErr); err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	a := &Aggregator{cfg: cfg, shards: make([]*shard, cfg.Shards), met: newMetrics(cfg.Registry)}
	for i := range a.shards {
		a.shards[i] = newShard(i, cfg, a.met)
	}
	if cfg.WAL.Dir != "" {
		if cfg.Policy != Block {
			return nil, errors.New("collector: WAL requires the block policy (drop would resurrect shed records on replay)")
		}
		w, err := wal.Open(wal.Config{
			Dir:            cfg.WAL.Dir,
			SegmentBytes:   cfg.WAL.SegmentBytes,
			FsyncInterval:  cfg.WAL.FsyncInterval,
			MaxSyncWindows: cfg.WAL.MaxSyncWindows,
			FS:             cfg.WAL.FS,
			Instr:          a.met.walInstrumentation(),
		})
		if err != nil {
			return nil, err
		}
		a.wal = w
		if err := a.restoreWAL(); err != nil {
			w.Close()
			return nil, err
		}
	}
	for i := range a.shards {
		a.wg.Add(1)
		go a.shards[i].run(&a.wg)
	}
	if a.wal != nil {
		if err := a.replayWAL(); err != nil {
			for _, sh := range a.shards {
				close(sh.ch)
			}
			a.wg.Wait()
			a.wal.Close()
			return nil, err
		}
		a.met.setRecovery(a.walRecovery, time.Since(opened))
	}
	if a.wal != nil && cfg.WAL.CheckpointInterval > 0 {
		a.ckptStop = make(chan struct{})
		a.ckptDone = make(chan struct{})
		go a.checkpointLoop()
	}
	if cfg.Shed.armed() {
		a.shed = newShedder(a, cfg.Shed)
		go a.shed.run()
	}
	// Scrape-time gauges: queue depths change record to record; the WAL's
	// positions live behind its mutex. Both are read on demand instead of
	// being pushed per event.
	cfg.Registry.OnGather(a.gatherGauges)
	if cfg.Tracer != nil {
		registerTracerGauges(cfg.Registry, cfg.Tracer)
	}
	a.ready.Store(true)
	return a, nil
}

// gatherGauges refreshes the scrape-time gauges. It runs on every
// /metrics render and is safe whatever the aggregator's lifecycle state.
func (a *Aggregator) gatherGauges() {
	for _, sh := range a.shards {
		sh.met.queueDepth.Set(float64(len(sh.ch)))
	}
	if err := a.Health(); err == nil {
		a.met.ready.Set(1)
	} else {
		a.met.ready.Set(0)
	}
	if a.wal != nil {
		ws := a.wal.Stats()
		a.met.walSegments.Set(float64(ws.Segments))
		a.met.walAppendedLSN.Set(float64(ws.AppendedLSN))
		a.met.walDurableLSN.Set(float64(ws.DurableLSN))
		a.met.walCheckpointLSN.Set(float64(a.ckptLSN.Load()))
	}
}

// Registry returns the registry holding the aggregator's metrics.
func (a *Aggregator) Registry() *obs.Registry { return a.cfg.Registry }

// Health reports whether the aggregator can uphold its ingest contract:
// nil once startup recovery completed, and an error when the WAL writer
// has been poisoned by an IO failure (nothing further will be
// acknowledged, so load balancers should stop routing here).
func (a *Aggregator) Health() error {
	if !a.ready.Load() {
		return errors.New("collector: recovery in progress")
	}
	if a.wal != nil {
		if err := a.wal.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Stats derives the ingest counters from the metrics registry — the same
// series /metrics exposes, so the JSON and Prometheus views cannot
// disagree. Unlike Snapshot it copies no aggregate state.
func (a *Aggregator) Stats() StatsReply {
	var reply StatsReply
	for _, sh := range a.shards {
		st := sh.stats()
		reply.Accepted += st.Accepted
		reply.Dropped += st.Dropped
		reply.Processed += st.Processed
		reply.Shards = append(reply.Shards, st)
	}
	if ws := a.WALStats(); ws.Enabled {
		reply.WAL = &ws
	}
	return reply
}

// shardHash is FNV-1a over k1, a zero separator, and k2 — the exact byte
// stream hash/fnv.New32a would see, inlined so the hot ingest path pays no
// hasher allocation and no interface calls. Checkpoint restore routes
// recovered groups with the same function, so the two must never diverge;
// TestShardHashMatchesFNV pins the equivalence.
func shardHash(k1, k2 string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k1); i++ {
		h = (h ^ uint32(k1[i])) * prime32
	}
	h *= prime32 // the zero separator: h ^ 0 == h
	for i := 0; i < len(k2); i++ {
		h = (h ^ uint32(k2[i])) * prime32
	}
	return h
}

// shardIndex maps an aggregation key to its owning shard's index.
func (a *Aggregator) shardIndex(k1, k2 string) int {
	return int(shardHash(k1, k2) % uint32(len(a.shards)))
}

// shardFor hashes an aggregation key to its owning shard, so every record
// of one (city, ISP) lands on the same goroutine.
func (a *Aggregator) shardFor(k1, k2 string) *shard {
	return a.shards[a.shardIndex(k1, k2)]
}

// Snapshot returns the current aggregate state. While the aggregator runs,
// it queues a mark on every shard and each shard captures itself when it
// reaches its mark, so the snapshot covers every offer that returned before
// Snapshot was called; the shards capture in parallel, each at its own
// point. After Close the final, fully-drained state is returned.
func (a *Aggregator) Snapshot() *Snapshot {
	a.mu.RLock()
	if !a.closed {
		m := a.mark(true)
		a.mu.RUnlock()
		m.passed.Wait()
		return mergeSnapshot(m.snaps, a.cfg.SketchRelErr)
	}
	a.mu.RUnlock()
	// After Close the goroutines have exited (wg.Wait is the memory
	// barrier), so shard state can be read directly.
	a.wg.Wait()
	parts := make([]shardSnap, len(a.shards))
	for i, sh := range a.shards {
		parts[i] = sh.snapshot()
	}
	return mergeSnapshot(parts, a.cfg.SketchRelErr)
}

// mark queues one mark on every shard, with a blocking send whatever the
// policy (a mark is never counted as accepted or dropped), and returns its
// header; the caller waits on its passed. With snap set, each shard writes
// its snapshot into snaps[shard id] before it passes. The caller holds a.mu
// on an open aggregator, or replays before the aggregator is returned.
func (a *Aggregator) mark(snap bool) *batchApply {
	m := new(batchApply)
	if snap {
		m.snaps = make([]shardSnap, len(a.shards))
	}
	m.passed.Add(len(a.shards))
	for _, sh := range a.shards {
		sh.ch <- item{kind: itemMark, batch: m}
	}
	return m
}

// Close stops intake and drains every shard queue before returning: all
// accepted records are reflected in subsequent Snapshots. With a WAL it
// then writes a final checkpoint covering the fully-drained state and
// closes the log, so the next start restores without replaying. It is
// idempotent; only the first call performs the shutdown work.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		a.wg.Wait()
		return nil
	}
	a.closed = true
	for _, sh := range a.shards {
		close(sh.ch)
	}
	a.mu.Unlock()
	a.wg.Wait()
	if a.shed != nil {
		a.shed.close()
	}
	if a.wal == nil {
		return nil
	}
	if a.ckptStop != nil {
		close(a.ckptStop)
		<-a.ckptDone
	}
	// The goroutines have exited and drained, so direct shard reads are the
	// final state — exactly the records appended to the log.
	parts := make([]shardSnap, len(a.shards))
	for i, sh := range a.shards {
		parts[i] = sh.snapshot()
	}
	a.mu.Lock()
	err := a.writeCheckpointLocked(parts)
	a.mu.Unlock()
	if cerr := a.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
