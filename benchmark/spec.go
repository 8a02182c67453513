package main

// The benchmark's names, units, directions and bounds. BENCHMARK.json at the
// repo root says the same thing to the driver; TestSpecMatchesBenchmarkJSON
// keeps the two from drifting.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_record", "ns", "lower", 0.25},
	{"alloc_b_per_record", "B", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
}

var perLayerSpec = []metricSpec{
	{Name: "dataset.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "dataset.view_parse_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "dataset.frame_b_per_record", Unit: "B", Better: "lower"},
	{Name: "dataset.unmarshal_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "collector.offer_view_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "collector.offer_view_wal_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "collector.http_ingest_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "collector.offer_frame_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "collector.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.snapshot_render_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.snapshot_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.snapshot_read_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.checkpoint_b", Unit: "B", Better: "lower"},
	{Name: "collector.recover_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.recover_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "collector.export_state_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.merge_states_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.append_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsyncs_per_kframe", Unit: "count", Better: "lower"},
	{Name: "wal.b_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.device_sync_wait_s", Unit: "s", Better: "lower"},
	{Name: "wal.replay_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "cluster.merged_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.client_add_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "cluster.forward_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "cluster.forwarded_ratio", Unit: "ratio", Better: "lower"},

	{Name: "obs.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.ack_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.missed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.retried", Unit: "count", Better: "lower"},

	{Name: "core.new_study_s", Unit: "s", Better: "lower"},
	{Name: "core.table1_s", Unit: "s", Better: "lower"},
	{Name: "core.figure3_s", Unit: "s", Better: "lower"},
	{Name: "core.figure4_s", Unit: "s", Better: "lower"},
	{Name: "core.figure5_s", Unit: "s", Better: "lower"},
	{Name: "core.table2_s", Unit: "s", Better: "lower"},
	{Name: "core.table3_s", Unit: "s", Better: "lower"},
	{Name: "core.figure6a_s", Unit: "s", Better: "lower"},
	{Name: "core.figure7_s", Unit: "s", Better: "lower"},
	{Name: "core.figure8_s", Unit: "s", Better: "lower"},
	{Name: "core.campaign_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "orbit.visible_from_ns", Unit: "ns", Better: "lower"},
	{Name: "orbit.serving_ns", Unit: "ns", Better: "lower"},
	{Name: "bentpipe.state_at_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cc.iperf_sim_s_per_s", Unit: "ratio", Better: "higher"},
	{Name: "webperf.load_page_ns", Unit: "ns", Better: "lower"},

	{Name: "bench.unattributed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

func workloads() []workload {
	return []workload{
		{
			name:  "ingest_closed",
			why:   "closed loop at saturation through client encode, HTTP, partition/apply and WAL append: the whole durable ingest path, reads and forwarder idle",
			setup: setupIngestClosed,
		},
		{
			name:  "ingest_open_reads",
			why:   "open loop at a fixed 11% of saturation with snapshot reads beside the writes on 400-city state: ack latency from due time, checkpoint pauses, read/write interference",
			setup: setupIngestOpen,
		},
		{
			name:  "recover_cold",
			why:   "fixed work: cold WAL recovery to ready plus first snapshot; replay, UnmarshalBatch and OfferExtensionFrame do all the work, HTTP and fsync none",
			setup: setupRecoverCold,
		},
		{
			name:  "cluster_forward",
			why:   "closed loop sprayed round-robin over a 3-instance cluster, so 2/3 of rows are decoded, re-marshalled and forwarded a second hop before the ack",
			setup: setupClusterForward,
		},
		{
			name:  "sim_exhibits",
			why:   "fixed work: the paper's exhibits from a fresh study; orbit, bentpipe, netsim, cc, webperf and core do all the work and the collector none",
			setup: setupSimExhibits,
		},
	}
}
