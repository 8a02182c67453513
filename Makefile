GO ?= go

# Each fuzz target gets this much wall time under `make fuzz`.
FUZZTIME ?= 30s

.PHONY: build test check check-steps fuzz bench bench-trace bench-sim bench-cluster bench-e2e bench-obsplane bench-tsdb

build:
	$(GO) build ./...

# Tier-1 gate: everything must build and the unit tests must pass.
test: build
	$(GO) test ./...

# Tier-2 gate: vet-clean and race-clean across the whole tree, the
# allocation gates of the frame path (ingest, WAL replay, the misrouted-frame
# split, a client's frame POST), of the read path (Snapshot plus the city
# table), of the packet path (a cubic iperf flow, a UDP blast, a speedtest
# on a renewed simulator) and of the
# browsing campaign's page draws (tranco's Site) — they
# skip under -race, so they run again without it — then the fuzz corpus
# sweep. The trace
# package runs first under -race as a fast dedicated gate (concurrent spans
# against scrapes is its whole contract), then the WAL's group-commit tests
# ten times each under -race (committers, window completions and the
# spacing timer's wake-ups all meet on the writer lock), then the
# collector's read-path tests ten times each under -race (reads and
# checkpoints queue marks behind concurrent writers' batches, and share
# domain lists with the shards), then its recovery tests ten times each
# under -race (replay's parse workers parse the ring's views through the
# shared interner while the shards apply earlier ones, and a failed read
# must stop both); the full -race sweep then covers
# everything including the collector. Before the fuzz sweep, each program
# under examples/ runs once and must exit 0 (about 1 s together), so an
# example that builds but no longer runs fails here. The last line
# printed is the target's wall time, pass or fail.
check:
	@start=$$(date +%s); $(MAKE) --no-print-directory check-steps; status=$$?; \
	echo "make check: $$(( $$(date +%s) - start )) s wall"; exit $$status

check-steps: build
	$(GO) vet ./...
	$(GO) test -race ./internal/trace/...
	$(GO) test -race -count=10 -run 'Test(WALGroupCommit|WALPipelinedCommitConcurrent|CommitSpacing|IdleCommitSyncsAtOnce|CloseWakesDeadlineWaiter)$$' ./internal/wal/
	$(GO) test -race -count=10 -run 'Test(SnapshotCoversAckedOffers|ReadPathRacesWriters)$$' ./internal/collector/
	$(GO) test -race -count=10 -run 'Test(RecoveryMixedLogDigest|ReplayBoundsLiveViews|ReplayFailureStopsShards|RecoveryGoldenDigestBrowsing)$$' ./internal/collector/
	$(GO) test -race -run 'TestShedOverloadKeepsSampledTraffic' ./internal/collector/
	$(GO) test -race -run 'TestAlertFiresUnderOverload' ./internal/collector/
	$(GO) test -race -timeout 30m ./...
	$(GO) test -run 'Test(BatchIngest|BatchReplay|ForwardSplit|ClientPost|Snapshot|Iperf|UDPBlast|RenewedSim|Site)AllocBudget' -count 1 ./internal/collector/ ./internal/cc/ ./internal/measure/ ./internal/tranco/
	$(GO) test -run '^$$' -bench 'Benchmark(ConstellationVisibility|ConstellationVisibilityBrute|VisibleFromPruned|ServingSelection|Table1|ClusterIngest1|ClusterIngest3|E2EIngestBatch)$$' -benchtime 1x -short .
	$(GO) run ./cmd/campaign -smoke
	for ex in quickstart datasetanalysis volunteernode; do $(GO) run ./examples/$$ex >/dev/null || exit 1; done
	$(MAKE) fuzz

# Fuzz the parsers that face untrusted bytes: WAL segment replay (the
# crash-recovery read path), the dataset row/stream decoders the
# collector's ingest and replay run per record, and the sketch blobs that
# checkpoints and cluster state carry. Also fuzz the TCP sender's SACK
# scoreboard against its full-rescan reference, with the fuzz bytes
# choosing the loss, reordering and recovery script, and the packet engine's
# firing order, with the fuzz bytes choosing the sends, forwards, probes,
# trains and timer re-arms, and the forwarder's frame split, with the fuzz
# bytes choosing the frame and each row's owner. Also fuzz the shards'
# domain sets against a plain string set, with the fuzz bytes choosing the
# domains, how many of them the intern table numbers or refuses, and the
# checkpoints and restarts, and the shard partition, with the fuzz bytes
# choosing the rows, the city and ISP dictionaries (repeated entries
# included) and the shard count. Also fuzz the batch parse against its
# one-value-at-a-time reference, with the fuzz bytes sealed as a frame body
# under a fresh CRC, and the varint check the parse runs on the columns it
# does not decode against the column kernel, with the fuzz bytes choosing
# the payload and the value count. Also fuzz the quantile sketch against its map-backed
# reference, with the fuzz bytes choosing the values and the runs of adds,
# merges, clones, round trips and cap changes between which its key index
# is built and emptied. Native Go fuzzing; each target runs for FUZZTIME.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReplaySegment -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=^$$ -fuzz=FuzzReplayDir -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalExtensionRow -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=^$$ -fuzz=FuzzReadExtensionCSV -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=^$$ -fuzz=FuzzReadNodeJSON -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalBatch -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=^$$ -fuzz=FuzzEncodeRowsSplit -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=^$$ -fuzz=FuzzParseBody -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=^$$ -fuzz=FuzzCheckMatchesUvarints -fuzztime=$(FUZZTIME) ./internal/varint/
	$(GO) test -run=^$$ -fuzz=FuzzReplayBatchFrame -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run=^$$ -fuzz=FuzzDomainSet -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run=^$$ -fuzz=FuzzPartition -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run=^$$ -fuzz=FuzzSketchUnmarshal -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -run=^$$ -fuzz=FuzzSketchOps -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -run=^$$ -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/tle/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBlock -fuzztime=$(FUZZTIME) ./internal/tsdb/
	$(GO) test -run=^$$ -fuzz=FuzzScoreboardMatchesScan -fuzztime=$(FUZZTIME) ./internal/cc/
	$(GO) test -run=^$$ -fuzz=FuzzDeliveriesFollowAtSeqOrder -fuzztime=$(FUZZTIME) ./internal/netsim/

# Benchmark pass: run the collector/WAL benchmarks and write the results
# as a machine-readable artifact. BENCH_collector.json is the baseline the
# ingest hot path is held to (BenchmarkCollectorIngest must not regress).
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . | tee bench.out
	$(GO) run ./tools/benchjson < bench.out > BENCH_collector.json
	@rm -f bench.out
	@echo "wrote BENCH_collector.json"

# Tracing-overhead pass: run just the traced/untraced ingest pair and write
# the comparison artifact. The comparisons block's delta_pct for shards=4 is
# the tracing budget number (<= 5%).
bench-trace:
	$(GO) test -run '^$$' -bench 'Benchmark(Collector|Traced)Ingest' -benchmem -benchtime $(BENCHTIME) . | tee bench-trace.out
	$(GO) run ./tools/benchjson < bench-trace.out > BENCH_trace.json
	@rm -f bench-trace.out
	@echo "wrote BENCH_trace.json"

# Simulation-performance pass: the constellation-engine pairs (pruned vs
# brute-force visibility, engine-parallel vs serial-brute Table 1 pipeline)
# plus the orbit micro-benchmarks. benchjson pairs the base/candidate rows,
# prints per-pair and geomean speedups on stderr, and BENCH_sim.json is the
# committed artifact those speedups are held to.
bench-sim:
	$(GO) test -run '^$$' -bench 'Benchmark(ConstellationVisibility|ConstellationVisibilityBrute|VisibleFromPruned|ServingSelection|OrbitPropagation|Table1|Table1Serial)$$' -benchmem -benchtime $(BENCHTIME) -timeout 60m . | tee bench-sim.out
	$(GO) run ./tools/benchjson < bench-sim.out > BENCH_sim.json
	@rm -f bench-sim.out
	@echo "wrote BENCH_sim.json"

# Cluster-scaling pass: durable ingest through 1 vs 3 collectord instances
# behind ring-routing clients (one synchronous stream per instance, acks
# gated on the group-commit fsync). benchjson pairs the rows into the
# cluster-3x-vs-1x-ingest comparison; BENCH_cluster.json is the committed
# artifact the >=2x horizontal-scaling claim is held to.
bench-cluster:
	$(GO) test -run '^$$' -bench 'BenchmarkClusterIngest(1|3)$$' -benchmem -benchtime $(BENCHTIME) . | tee bench-cluster.out
	$(GO) run ./tools/benchjson < bench-cluster.out > BENCH_cluster.json
	@rm -f bench-cluster.out
	@echo "wrote BENCH_cluster.json"

# End-to-end ingest pass: sustained campaign-generator -> client ->
# collector -> WAL records/sec over the columnar batch wire at 1/4/8 shards.
# benchjson emits the shard_scaling map (shards=8 over shards=1 records/s).
# The committed BENCH_e2e.json predates the CSV route's removal and still
# holds the >=3x batch-vs-CSV comparison. Set CPUPROFILE=/path/cpu.pprof
# and/or MEMPROFILE=/path/mem.pprof to profile the pass.
bench-e2e:
	$(GO) test -run '^$$' -bench 'BenchmarkE2EIngestBatch$$' -benchmem -benchtime $(BENCHTIME) $(if $(CPUPROFILE),-cpuprofile $(CPUPROFILE)) $(if $(MEMPROFILE),-memprofile $(MEMPROFILE)) . | tee bench-e2e.out
	$(GO) run ./tools/benchjson < bench-e2e.out > BENCH_e2e.json
	@rm -f bench-e2e.out
	@echo "wrote BENCH_e2e.json"

# Observability-plane pass. The <=1% admission-check budget is checked
# against the shed-admission-vs-ingest-record comparison: BenchmarkShedAdmit
# prices the armed-idle admission call in isolation, and its ns/op divided
# by one ingested record's ns/op (candidate_ns_op / base_ns_op) must stay
# <= 0.01. The end-to-end shed-armed-idle-vs-off-ingest mirror is a sanity
# cross-check only — it is consumer-bound (producers block on shard drain),
# so its run-to-run scatter is a few percent either side of zero even with
# -count 5 averaging; expect its deltas to straddle zero, not to resolve
# sub-1% effects. The federated vs single-instance scrape pair prices the
# fan-out+merge cost. BENCH_obsplane.json is the committed artifact.
bench-obsplane:
	$(GO) test -run '^$$' -bench 'Benchmark(CollectorIngest|ShedIdleIngest|ShedAdmit|ScrapeSingle|ScrapeFederated)$$' -benchmem -benchtime $(BENCHTIME) -count 5 -timeout 30m . | tee bench-obsplane.out
	$(GO) run ./tools/benchjson < bench-obsplane.out > BENCH_obsplane.json
	@rm -f bench-obsplane.out
	@echo "wrote BENCH_obsplane.json"

# Embedded-tsdb pass. Two budgets live in BENCH_tsdb.json:
#   - tsdb-scrape-vs-ingest-record: one self-scrape tick, amortized over the
#     100k records a collector ingests per nominal 1s scrape interval
#     (BenchmarkTSDBScrapeAmortized), divided by one ingested record's ns/op
#     (candidate_ns_op / base_ns_op) must stay <= 0.01.
#   - BenchmarkTSDBCompress's bytes/sample metric must stay <= 2 on the
#     steady-counter workload (vs 16 bytes naive); the benchmark itself
#     fails if the budget is blown.
# BenchmarkTSDBAppend and BenchmarkTSDBRangeQuery pin the store's append
# hot path and a dashboard-shaped 5-minute rate() query latency.
bench-tsdb:
	$(GO) test -run '^$$' -bench 'Benchmark(CollectorIngest|TSDBAppend|TSDBCompress|TSDBRangeQuery|TSDBScrapeAmortized)$$' -benchmem -benchtime $(BENCHTIME) . | tee bench-tsdb.out
	$(GO) run ./tools/benchjson < bench-tsdb.out > BENCH_tsdb.json
	@rm -f bench-tsdb.out
	@echo "wrote BENCH_tsdb.json"
