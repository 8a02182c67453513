package collector

import (
	"strconv"
	"time"

	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// metrics is the collector's whole metric surface, registered against one
// obs.Registry. Every counter the collector exposes — on /metrics and in
// the /stats JSON — lives here; there is no parallel set of atomics, so
// the two endpoints can never disagree.
//
// Hot-path children (per-shard accepted/dropped/processed counters, the
// apply-latency histogram) are resolved once at shard construction and
// cached on the shard, so the per-record cost is the atomic add alone.
type metrics struct {
	reg *obs.Registry

	// Ingest path.
	ingestRecords *obs.CounterVec   // ingest_records_total{source,shard}
	ingestDropped *obs.CounterVec   // ingest_dropped_records_total{source,shard}
	processed     *obs.CounterVec   // collector_processed_records_total{shard}
	queueDepth    *obs.GaugeVec     // collector_shard_queue_depth{shard}
	groups        *obs.GaugeVec     // collector_shard_groups{shard}
	applyLatency  *obs.HistogramVec // collector_apply_latency_seconds{shard}
	ackLatency    *obs.Histogram    // ingest_ack_latency_seconds
	ready         *obs.Gauge        // collector_ready

	// HTTP front end.
	httpRequests *obs.CounterVec   // http_requests_total{path,code}
	httpDuration *obs.HistogramVec // http_request_duration_seconds{path}

	// Durability (series appear only on WAL-enabled collectors).
	walAppends       *obs.Counter   // wal_appends_total
	walAppendedBytes *obs.Counter   // wal_appended_bytes_total
	walFsyncs        *obs.Counter   // wal_fsyncs_total
	walFsyncDuration *obs.Histogram // wal_fsync_duration_seconds
	walCommitBatch   *obs.Histogram // wal_commit_batch_records
	walCommitWait    *obs.Histogram // wal_commit_wait_seconds
	walRotations     *obs.Counter   // wal_rotations_total
	walCheckpoints   *obs.Counter   // wal_checkpoints_total

	walSegments      *obs.Gauge // wal_segments
	walAppendedLSN   *obs.Gauge // wal_appended_lsn
	walDurableLSN    *obs.Gauge // wal_durable_lsn
	walCheckpointLSN *obs.Gauge // wal_last_checkpoint_lsn

	// Startup recovery, set once after OpenAggregator replays the log.
	recSegments  *obs.Gauge // wal_recovery_segments
	recRecords   *obs.Gauge // wal_recovery_log_records
	recTornBytes *obs.Gauge // wal_recovery_truncated_bytes
	recRemoved   *obs.Gauge // wal_recovery_removed_segments
	recRestored  *obs.Gauge // wal_recovery_restored_records
	recReplayed  *obs.Gauge // wal_recovery_replayed_records
	recSkipped   *obs.Gauge // wal_recovery_skipped_records
	recSeconds   *obs.Gauge // collector_wal_recovery_seconds
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg: reg,
		ingestRecords: reg.CounterVec("ingest_records_total",
			"Records accepted into shard queues.", "source", "shard"),
		ingestDropped: reg.CounterVec("ingest_dropped_records_total",
			"Records shed by queue pressure, closure or WAL failure.", "source", "shard"),
		processed: reg.CounterVec("collector_processed_records_total",
			"Records applied to shard aggregates.", "shard"),
		queueDepth: reg.GaugeVec("collector_shard_queue_depth",
			"Records waiting in the shard's bounded queue.", "shard"),
		groups: reg.GaugeVec("collector_shard_groups",
			"Distinct aggregation groups owned by the shard.", "shard"),
		applyLatency: reg.HistogramVec("collector_apply_latency_seconds",
			"Time records spent queued before their shard applied them.",
			nil, "shard"),
		ackLatency: reg.Histogram("ingest_ack_latency_seconds",
			"Ingest batch latency from request start to (fsynced) acknowledgement.", nil),
		ready: reg.Gauge("collector_ready",
			"1 once recovery completed and the WAL is healthy, else 0."),
		httpRequests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by path and status code.", "path", "code"),
		httpDuration: reg.HistogramVec("http_request_duration_seconds",
			"HTTP request duration, by path.", nil, "path"),
		walAppends: reg.Counter("wal_appends_total",
			"Records appended to the write-ahead log."),
		walAppendedBytes: reg.Counter("wal_appended_bytes_total",
			"Framed bytes appended to the write-ahead log."),
		walFsyncs: reg.Counter("wal_fsyncs_total",
			"Fsyncs issued by the log writer."),
		walFsyncDuration: reg.Histogram("wal_fsync_duration_seconds",
			"Duration of log flush+fsync calls.", nil),
		walCommitBatch: reg.Histogram("wal_commit_batch_records",
			"Records made durable per fsync (the group-commit batch size).",
			obs.DefSizeBuckets),
		walCommitWait: reg.Histogram("wal_commit_wait_seconds",
			"Time Commit callers blocked waiting for their covering fsync.", nil),
		walRotations: reg.Counter("wal_rotations_total",
			"Segment rotations performed."),
		walCheckpoints: reg.Counter("wal_checkpoints_total",
			"Shard-snapshot checkpoints persisted."),
		walSegments: reg.Gauge("wal_segments",
			"Live segment files in the log directory."),
		walAppendedLSN: reg.Gauge("wal_appended_lsn",
			"Highest LSN handed out by Append."),
		walDurableLSN: reg.Gauge("wal_durable_lsn",
			"Highest fsynced LSN."),
		walCheckpointLSN: reg.Gauge("wal_last_checkpoint_lsn",
			"LSN covered by the most recent checkpoint."),
		recSegments: reg.Gauge("wal_recovery_segments",
			"Segment files scanned by startup recovery."),
		recRecords: reg.Gauge("wal_recovery_log_records",
			"Valid frames found across segments at startup."),
		recTornBytes: reg.Gauge("wal_recovery_truncated_bytes",
			"Torn-tail bytes truncated by startup recovery."),
		recRemoved: reg.Gauge("wal_recovery_removed_segments",
			"Stranded segments discarded by startup recovery."),
		recRestored: reg.Gauge("wal_recovery_restored_records",
			"Records restored from the checkpoint at startup."),
		recReplayed: reg.Gauge("wal_recovery_replayed_records",
			"Records re-applied from the log tail at startup."),
		recSkipped: reg.Gauge("wal_recovery_skipped_records",
			"Durable frames whose payloads failed to decode during replay."),
		recSeconds: reg.Gauge("collector_wal_recovery_seconds",
			"Time from opening the aggregator to ready: log scan, checkpoint restore and replay."),
	}
}

// shardMetrics are one shard's cached metric children.
type shardMetrics struct {
	accepted     *obs.Counter
	dropped      *obs.Counter
	processed    *obs.Counter
	queueDepth   *obs.Gauge
	groups       *obs.Gauge
	applyLatency *obs.Histogram
}

func (m *metrics) shard(id int) shardMetrics {
	s := strconv.Itoa(id)
	return shardMetrics{
		accepted:     m.ingestRecords.With("extension", s),
		dropped:      m.ingestDropped.With("extension", s),
		processed:    m.processed.With(s),
		queueDepth:   m.queueDepth.With(s),
		groups:       m.groups.With(s),
		applyLatency: m.applyLatency.With(s),
	}
}

// walInstrumentation adapts the metric set to the WAL's dependency-free
// hook. The callbacks run under the writer's mutex: atomic adds only.
func (m *metrics) walInstrumentation() wal.Instrumentation {
	return wal.Instrumentation{
		Append: func(bytes int) {
			m.walAppends.Inc()
			m.walAppendedBytes.Add(uint64(bytes))
		},
		Sync: func(d time.Duration, records uint64) {
			m.walFsyncs.Inc()
			m.walFsyncDuration.Observe(d.Seconds())
			if records > 0 {
				m.walCommitBatch.Observe(float64(records))
			}
		},
		Rotate:     func() { m.walRotations.Inc() },
		CommitWait: func(d time.Duration) { m.walCommitWait.Observe(d.Seconds()) },
	}
}

// registerTracerGauges mirrors the tracer's own counters into scrape-time
// gauges, so the sampling behaviour (kept vs dropped traces, span volume)
// is visible on the same /metrics page as the latencies the spans explain.
func registerTracerGauges(reg *obs.Registry, t *trace.Tracer) {
	started := reg.Gauge("trace_started_spans",
		"Spans started by the request tracer.")
	finished := reg.Gauge("trace_finished_spans",
		"Spans finished and handed to the trace store.")
	kept := reg.Gauge("trace_kept_traces",
		"Traces kept by the tail sampler (errors, forced, slowest-N%).")
	droppedTraces := reg.Gauge("trace_dropped_traces",
		"Completed or evicted traces the tail sampler discarded.")
	droppedSpans := reg.Gauge("trace_dropped_spans",
		"Spans discarded after their trace's drop decision or span cap.")
	reg.OnGather(func() {
		st := t.Stats()
		started.Set(float64(st.StartedSpans))
		finished.Set(float64(st.FinishedSpans))
		kept.Set(float64(st.KeptTraces))
		droppedTraces.Set(float64(st.DroppedTraces))
		droppedSpans.Set(float64(st.DroppedSpans))
	})
}

// setRecovery publishes what startup recovery rebuilt and how long it took.
func (m *metrics) setRecovery(rec WALRecovery, took time.Duration) {
	m.recSegments.Set(float64(rec.Log.Segments))
	m.recRecords.Set(float64(rec.Log.Records))
	m.recTornBytes.Set(float64(rec.Log.TornBytes))
	m.recRemoved.Set(float64(rec.Log.RemovedSegments))
	m.recRestored.Set(float64(rec.RestoredRecords))
	m.recReplayed.Set(float64(rec.ReplayedRecords))
	m.recSkipped.Set(float64(rec.SkippedCorrupt))
	m.recSeconds.Set(took.Seconds())
}
