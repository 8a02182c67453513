// Command collectord serves the measurement-ingest collector: it accepts
// browser-extension records (CSV rows or columnar batch frames) over HTTP,
// aggregates them online across sharded goroutines, and
// exposes the running aggregates at /snapshot and ingest counters at
// /stats. On SIGINT/SIGTERM it stops accepting, drains every shard queue,
// and prints the final city table and per-shard counters.
//
// With -wal-dir set, ingest is durable: every accepted record is appended
// to a checksummed write-ahead log before it is acknowledged, periodic
// checkpoints bound recovery time, and a restart with the same -wal-dir
// resumes from exactly the acknowledged state — kill -9 included.
//
// Observability: GET /metrics serves the full registry in Prometheus text
// exposition format (ingest, WAL, HTTP and Go runtime series); GET /healthz
// answers 200 while the collector can still make ingest durable and 503
// once a failed fsync has poisoned the WAL writer. With -pprof-addr set, a
// side listener serves net/http/pprof (CPU/heap profiles, execution
// traces) without exposing it on the ingest port.
//
// Clustering: with -peers set, N collectord instances form one logical
// collector. A consistent-hash ring over (city, ISP) partitions the
// keyspace, batches landing on the wrong instance are forwarded to their
// owner before acknowledgement, and GET /cluster/snapshot on any instance
// fans out to every live peer and serves the merged aggregates — the same
// result a single instance ingesting everything would serve. -advertise
// names the address peers reach this instance on (defaults to the bound
// listen address), and -health-interval probes peer /healthz to excise dead
// instances from the ring.
//
// Compaction: -compact-dir rewrites sealed WAL segments as release-format
// datasets (sorted extension CSV), either periodically
// beside the server (-compact-interval) or as a one-shot offline pass
// (-compact).
//
// Embedded tsdb: with -tsdb-scrape-interval set, the process self-scrapes
// its own registry (or, with -tsdb-federated on a clustered instance, the
// merged /cluster/metrics view) into an in-memory compressed time-series
// store with bounded retention, served at GET /tsdb/query (instant, range,
// rate, quantile-over-time). -alert-rules loads declarative SLO rules —
// thresholds and multi-window burn rates — evaluated every scrape tick
// with a pending/firing state machine, served at GET /alerts.
//
// Usage:
//
//	collectord [-addr 127.0.0.1:8787] [-shards 4] [-queue 1024]
//	           [-policy block|drop] [-relerr 0.01]
//	           [-wal-dir DIR] [-fsync-interval 2ms] [-segment-bytes 67108864]
//	           [-checkpoint-interval 30s] [-pprof-addr 127.0.0.1:6060]
//	           [-peers HOST:PORT,...] [-advertise HOST:PORT] [-vnodes 128]
//	           [-health-interval 5s]
//	           [-compact-dir DIR] [-compact-interval 0]
//	           [-tsdb-scrape-interval 1s] [-tsdb-retention 15m]
//	           [-tsdb-federated] [-alert-rules rules.json]
//	collectord -wal-dump -wal-dir DIR   # dump the log as dataset rows
//	collectord -compact -wal-dir DIR -compact-dir OUT   # compact and exit
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/tsdb"
	"starlinkview/internal/wal"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:8787", "listen address")
		shards = flag.Int("shards", 4, "aggregation shards")
		queue  = flag.Int("queue", 1024, "per-shard queue length")
		policy = flag.String("policy", "block", "full-queue policy: block (backpressure) or drop (shed)")
		relerr = flag.Float64("relerr", 0.01, "quantile sketch relative error")

		walDir       = flag.String("wal-dir", "", "write-ahead log directory (empty = no durability)")
		fsyncIval    = flag.Duration("fsync-interval", 2*time.Millisecond, "minimum spacing between group-commit fsyncs")
		segmentBytes = flag.Int64("segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation size")
		ckptIval     = flag.Duration("checkpoint-interval", 30*time.Second, "shard-snapshot checkpoint interval (0 = only on shutdown)")
		walDump      = flag.Bool("wal-dump", false, "dump the WAL at -wal-dir as dataset rows and exit")
		pprofAddr    = flag.String("pprof-addr", "", "if set, serve net/http/pprof on this side address (e.g. 127.0.0.1:6060)")

		traceOn   = flag.Bool("trace", false, "trace requests end to end and serve kept traces at GET /traces")
		traceCap  = flag.Int("trace-capacity", 256, "kept traces retained in the ring buffer")
		traceSlow = flag.Float64("trace-slowest-pct", 5, "tail-sample: keep roots in the slowest N percent (plus errors and forced samples)")
		maxLabels = flag.Int("max-label-children", 0, "cap on children per label vector; 0 = uncapped (excess increments obs_dropped_labels_total)")

		shedQueuePct = flag.Float64("shed-queue-pct", 0, "shed unsampled ingest when any shard queue fills past this fraction (0 = off)")
		shedAckP99   = flag.Duration("shed-ack-p99", 0, "shed unsampled ingest when the interval ack-latency p99 exceeds this (0 = off)")
		shedEvalIval = flag.Duration("shed-eval-interval", 25*time.Millisecond, "admission controller evaluation interval")

		tsdbIval      = flag.Duration("tsdb-scrape-interval", 0, "embedded tsdb self-scrape interval (0 = tsdb off)")
		tsdbRetention = flag.Duration("tsdb-retention", 15*time.Minute, "embedded tsdb fine-tier retention (coarse tier keeps 10x longer)")
		tsdbFederated = flag.Bool("tsdb-federated", false, "scrape the federated /cluster/metrics merge instead of the local registry (needs -peers)")
		alertRules    = flag.String("alert-rules", "", "JSON SLO alert rules file evaluated each tsdb scrape tick")

		peers      = flag.String("peers", "", "comma-separated advertise addresses of the other cluster instances")
		advertise  = flag.String("advertise", "", "address peers reach this instance on (default: the bound listen address)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per instance on the consistent-hash ring")
		healthIval = flag.Duration("health-interval", 5*time.Second, "peer /healthz probe interval (0 = static membership, all peers presumed alive)")

		compactDir  = flag.String("compact-dir", "", "directory for compacted release datasets rewritten from sealed WAL segments")
		compactIval = flag.Duration("compact-interval", 0, "periodic compaction interval (0 = never; needs -wal-dir and -compact-dir)")
		compactOnce = flag.Bool("compact", false, "compact sealed WAL segments at -wal-dir into -compact-dir and exit")
	)
	flag.Parse()

	if *walDump {
		if *walDir == "" {
			fatal(fmt.Errorf("-wal-dump needs -wal-dir"))
		}
		if err := dumpWAL(*walDir); err != nil {
			fatal(err)
		}
		return
	}
	if *compactOnce {
		if *walDir == "" || *compactDir == "" {
			fatal(fmt.Errorf("-compact needs -wal-dir and -compact-dir"))
		}
		res, err := cluster.CompactColdSegments(cluster.CompactConfig{
			WALDir: *walDir, OutDir: *compactDir,
		})
		if err != nil {
			fatal(err)
		}
		printCompaction(res)
		return
	}
	if *compactIval > 0 && (*walDir == "" || *compactDir == "") {
		fatal(fmt.Errorf("-compact-interval needs -wal-dir and -compact-dir"))
	}

	pol, err := collector.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	if *maxLabels > 0 {
		reg.LimitCardinality(*maxLabels)
	}
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(trace.Config{
			Capacity:   *traceCap,
			SlowestPct: *traceSlow,
		})
	}
	srv, err := collector.OpenServer(collector.Config{
		Shards: *shards, QueueLen: *queue, Policy: pol, SketchRelErr: *relerr,
		Registry: reg,
		Tracer:   tracer,
		Shed: collector.ShedConfig{
			QueueHighPct:  *shedQueuePct,
			AckLatencyP99: *shedAckP99,
			EvalInterval:  *shedEvalIval,
		},
		WAL: collector.WALConfig{
			Dir:                *walDir,
			FsyncInterval:      *fsyncIval,
			SegmentBytes:       *segmentBytes,
			CheckpointInterval: *ckptIval,
		},
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(*addr); err != nil {
		fatal(err)
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("collectord: listening on %s (%d shards, queue %d, policy %s)\n",
		srv.Addr(), *shards, *queue, pol)
	if tracer != nil {
		fmt.Printf("collectord: tracing on (capacity %d, slowest %.1f%%): GET %s\n",
			*traceCap, *traceSlow, collector.PathTraces)
	}
	if *shedQueuePct > 0 || *shedAckP99 > 0 {
		fmt.Printf("collectord: load shedding armed (queue > %.0f%%, ack p99 > %v, eval every %v)\n",
			*shedQueuePct*100, *shedAckP99, *shedEvalIval)
	}
	if *walDir != "" {
		rec := srv.Aggregator().WALRecovery()
		fmt.Printf("collectord: wal %s (fsync spacing %v, checkpoint every %v): recovered %d records (%d from checkpoint, %d replayed, %d skipped)\n",
			*walDir, *fsyncIval, *ckptIval,
			rec.RestoredRecords+rec.ReplayedRecords, rec.RestoredRecords,
			rec.ReplayedRecords, rec.SkippedCorrupt)
		if rec.Log.TornBytes > 0 || rec.Log.RemovedSegments > 0 {
			fmt.Printf("collectord: wal recovery truncated %d torn bytes, removed %d stranded segments\n",
				rec.Log.TornBytes, rec.Log.RemovedSegments)
		}
		if rec.SkippedNodeRecords > 0 {
			fmt.Printf("collectord: wal recovery skipped %d volunteer-node samples an earlier build logged\n",
				rec.SkippedNodeRecords)
		}
	}

	var node *cluster.Node
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = srv.Addr()
		}
		node, err = cluster.NewNode(cluster.NodeConfig{
			Server:        srv,
			Self:          self,
			Peers:         splitList(*peers),
			VNodes:        *vnodes,
			ProbeInterval: *healthIval,
			Tracer:        tracer,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("collectord: cluster of %d (self %s, %d vnodes, probe every %v): GET %s\n",
			len(node.Membership().Members()), self, *vnodes, *healthIval, cluster.PathClusterSnapshot)
	}

	var db *tsdb.DB
	if *tsdbIval > 0 {
		var rules []tsdb.Rule
		if *alertRules != "" {
			if rules, err = tsdb.LoadRules(*alertRules); err != nil {
				fatal(err)
			}
		}
		source := tsdb.RegistrySource(reg)
		mode := "local registry"
		if *tsdbFederated {
			if node == nil {
				fatal(fmt.Errorf("-tsdb-federated needs -peers"))
			}
			source = node.MetricsSource()
			mode = "federated /cluster/metrics"
		}
		db, err = tsdb.Open(tsdb.Config{
			Store:          tsdb.StoreConfig{Retention: *tsdbRetention},
			Source:         source,
			ScrapeInterval: *tsdbIval,
			Registry:       reg,
			Rules:          rules,
			Tracer:         tracer,
		})
		if err != nil {
			fatal(err)
		}
		srv.Handle(tsdb.PathQuery, db.QueryHandler())
		srv.Handle(tsdb.PathAlerts, db.AlertsHandler())
		fmt.Printf("collectord: tsdb scraping %s every %v (retention %v, %d alert rules): GET %s, GET %s\n",
			mode, *tsdbIval, *tsdbRetention, len(rules), tsdb.PathQuery, tsdb.PathAlerts)
	} else if *alertRules != "" || *tsdbFederated {
		fatal(fmt.Errorf("-alert-rules/-tsdb-federated need -tsdb-scrape-interval > 0"))
	}

	stopCompact := make(chan struct{})
	compactDone := make(chan struct{})
	if *compactIval > 0 {
		go func() {
			defer close(compactDone)
			tick := time.NewTicker(*compactIval)
			defer tick.Stop()
			for {
				select {
				case <-stopCompact:
					return
				case <-tick.C:
					res, err := cluster.CompactColdSegments(cluster.CompactConfig{
						WALDir: *walDir, OutDir: *compactDir,
					})
					if err != nil {
						fmt.Fprintln(os.Stderr, "collectord: compact:", err)
						continue
					}
					if res.Compacted > 0 {
						printCompaction(res)
					}
				}
			}
		}()
	} else {
		close(compactDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("collectord: draining...")
	close(stopCompact)
	<-compactDone
	if db != nil {
		db.Close()
	}
	if node != nil {
		node.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	if *compactIval > 0 {
		// Shutdown sealed the log with a final sync, so one last pass picks
		// up segments rotated since the previous tick.
		if res, err := cluster.CompactColdSegments(cluster.CompactConfig{
			WALDir: *walDir, OutDir: *compactDir,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "collectord: compact:", err)
		} else if res.Compacted > 0 {
			printCompaction(res)
		}
	}

	snap := srv.Aggregator().Snapshot()
	fmt.Printf("collectord: accepted %d, dropped %d, processed %d\n",
		snap.Accepted, snap.Dropped, snap.Processed)
	if ws := srv.Aggregator().WALStats(); ws.Enabled {
		fmt.Printf("collectord: wal durable through LSN %d (%d segments, %d bytes appended, %d fsyncs, %d checkpoints)\n",
			ws.DurableLSN, ws.Segments, ws.AppendedBytes, ws.Syncs, ws.Checkpoints)
	}
	for _, sh := range snap.Shards {
		fmt.Printf("  shard %d: accepted %8d  dropped %6d  groups %3d  ingest p50/p95/p99 %.0f/%.0f/%.0f µs\n",
			sh.Shard, sh.Accepted, sh.Dropped, sh.Groups,
			sh.IngestP50Us, sh.IngestP95Us, sh.IngestP99Us)
	}
	if cities := snap.Cities(); len(cities) > 0 {
		fmt.Printf("\n%-15s %10s %8s %10s %10s %8s %10s\n",
			"City", "SL reqs", "SL doms", "SL medPTT", "nonSL reqs", "doms", "medPTT")
		for _, r := range snap.CityTable(cities) {
			fmt.Printf("%-15s %10d %8d %9.1fms %10d %8d %9.1fms\n",
				r.City, r.StarlinkReqs, r.StarlinkDomains, r.StarlinkMedianPTT,
				r.NonSLReqs, r.NonSLDomains, r.NonSLMedianPTT)
		}
	}
}

// servePprof starts the opt-in profiling side server. It registers the
// pprof handlers on a private mux — never on the ingest mux — so profiles
// and execution traces are reachable only via -pprof-addr.
func servePprof(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listen: %w", err)
	}
	fmt.Printf("collectord: pprof on http://%s/debug/pprof/\n", lis.Addr())
	go func() {
		if err := http.Serve(lis, mux); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "collectord: pprof:", err)
		}
	}()
	return nil
}

// dumpWAL prints the log's payloads to stdout in append order — the WAL
// record encoding is the dataset release encoding, so the output is the
// extension CSV schema (header first). Columnar batch frames are expanded
// into the same CSV rows, so a log written over either wire dumps
// identically; any other payload (a kind-1 row, or a node sample's JSON line
// in a log an earlier build wrote) is printed as logged.
func dumpWAL(dir string) error {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, strings.Join(dataset.ExtensionHeader(), ","))
	var n int
	err := wal.ReplayDir(nil, dir, 0, func(r wal.Rec) error {
		if r.Kind == collector.WALKindExtensionBatch {
			recs, derr := collector.DecodeWALExtensionBatch(r.Payload)
			if derr != nil {
				return fmt.Errorf("LSN %d: batch frame: %w", r.LSN, derr)
			}
			n += len(recs)
			cw := csv.NewWriter(out)
			for _, rec := range recs {
				if werr := cw.Write(dataset.MarshalExtensionRow(rec)); werr != nil {
					return werr
				}
			}
			cw.Flush()
			return cw.Error()
		}
		n++
		out.Write(r.Payload)
		if len(r.Payload) == 0 || r.Payload[len(r.Payload)-1] != '\n' {
			out.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collectord: dumped %d records from %s\n", n, dir)
	return out.Flush()
}

// splitList parses a comma-separated flag value, dropping empty elements
// so trailing commas are harmless.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func printCompaction(res cluster.CompactResult) {
	fmt.Printf("collectord: compacted %d of %d cold segments (%d records) into %d datasets\n",
		res.Compacted, res.ColdSegments, res.ExtensionRecords, len(res.Outputs))
	for _, out := range res.Outputs {
		fmt.Println("  " + out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "collectord:", err)
	os.Exit(1)
}
