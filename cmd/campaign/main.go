// Command campaign runs a chunked streaming browsing campaign — the
// million-user scale-up of the paper's 28-user deployment — against a
// collectord instance or cluster, checkpointing after every delivered chunk
// so a killed run resumes exactly where it stopped and produces the
// identical record stream.
//
// Usage:
//
//	campaign [-preset small|mega] [-targets HOST:PORT,...]
//	         [-checkpoint PATH] [-resume] [-workers N]
//	         [-users N] [-cities N] [-chunks N] [-chunk-hours N] [-seed N]
//	campaign -smoke
//
// The small preset streams 10⁴ users over two 6-hour chunks; mega streams
// 10⁶ users across 300 cities through a week of hour-wide chunks. Explicit
// shape flags override the preset. With no -targets the campaign dry-runs:
// chunks are generated and counted but not sent — useful for timing the
// generator alone. Records travel as columnar batch frames, the collector's
// only ingest wire.
//
// -checkpoint (default campaign.ckpt next to the working dir) is written
// atomically after each chunk is acknowledged; -resume loads it and
// continues. Resuming with a different -workers is safe — worker count
// never affects the stream.
//
// -smoke runs the self-check `make check` uses: a downscaled campaign into
// an in-process collector, killed after its first chunk and resumed,
// verifying the final aggregate state is byte-identical to an uninterrupted
// run. It exercises generator → columnar wire → WAL → aggregator end to
// end in a few seconds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
)

func main() {
	var (
		preset     = flag.String("preset", "small", "campaign preset: small (10⁴ users) or mega (10⁶ users)")
		targets    = flag.String("targets", "", "comma-separated collectord addresses (empty = dry run, generate only)")
		checkpoint = flag.String("checkpoint", "campaign.ckpt", "checkpoint file path")
		resume     = flag.Bool("resume", false, "resume from the checkpoint file")
		smoke      = flag.Bool("smoke", false, "run the built-in kill/resume equivalence self-check and exit")

		users      = flag.Int("users", 0, "override preset user count")
		cities     = flag.Int("cities", 0, "override preset city count")
		chunks     = flag.Int("chunks", 0, "override preset chunk count")
		chunkHours = flag.Int("chunk-hours", 0, "override preset chunk width")
		seed       = flag.Uint64("seed", 0, "override preset seed")
		workers    = flag.Int("workers", 0, "override preset generation workers")
		route      = flag.String("route", cluster.RouteRing, "multi-target routing: ring or rr")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "ring virtual nodes (must match cluster)")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fatal(err)
		}
		fmt.Println("campaign smoke: kill/resume stream equivalent to uninterrupted run")
		return
	}

	var cfg core.CampaignConfig
	switch *preset {
	case "small":
		cfg = core.SmallCampaign()
	case "mega":
		cfg = core.MegaCampaign()
	default:
		fatal(fmt.Errorf("unknown preset %q (want small or mega)", *preset))
	}
	if *users > 0 {
		cfg.Users = *users
	}
	if *cities > 0 {
		cfg.Cities = *cities
	}
	if *chunks > 0 {
		cfg.Chunks = *chunks
	}
	if *chunkHours > 0 {
		cfg.ChunkHours = *chunkHours
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		fatal(err)
	}
	if *resume {
		ck, err := core.LoadCampaignCheckpoint(*checkpoint)
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		if err := camp.Restore(ck); err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		fmt.Printf("campaign: resuming at chunk %d/%d\n", camp.NextChunk(), cfg.Chunks)
	}

	sink, closeSink, paced, err := buildSink(splitList(*targets), *route, *vnodes)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("campaign: %d users, %d cities, %d × %dh chunks, %d workers\n",
		cfg.Users, cfg.Cities, cfg.Chunks, cfg.ChunkHours, cfg.Workers)
	start := time.Now()
	var total uint64
	for !camp.Done() {
		chunk := camp.NextChunk()
		t0 := time.Now()
		var n int
		err := camp.RunChunk(func(recs []extension.Record) error {
			n = len(recs)
			return sink(recs)
		})
		if err != nil {
			fatal(fmt.Errorf("chunk %d: %w", chunk, err))
		}
		if err := camp.SaveCheckpoint(*checkpoint); err != nil {
			fatal(fmt.Errorf("chunk %d: %w", chunk, err))
		}
		total += uint64(n)
		el := time.Since(t0)
		fmt.Printf("  chunk %3d/%d: %8d records in %7v (%8.0f rec/s)\n",
			chunk+1, cfg.Chunks, n, el.Round(time.Millisecond), float64(n)/el.Seconds())
	}
	if err := closeSink(); err != nil {
		fatal(err)
	}
	el := time.Since(start)
	fmt.Printf("campaign: %d records in %v — %.0f rec/s sustained\n",
		total, el.Round(time.Millisecond), float64(total)/el.Seconds())
	if n := paced(); n > 0 {
		fmt.Printf("campaign: paced %d times by collector backpressure (campaign_paced_total)\n", n)
	}
}

// buildSink returns the chunk sink, its closer, and an accessor for the
// campaign_paced_total counter — how many times the cluster client slowed
// down for a collector's 429 backpressure. The sink only returns nil once
// every record of the chunk is acknowledged — the contract RunChunk's
// commit-on-success semantics need.
func buildSink(targets []string, route string, vnodes int) (func([]extension.Record) error, func() error, func() uint64, error) {
	if len(targets) == 0 {
		fmt.Println("campaign: no targets — dry run (generate and discard)")
		return func([]extension.Record) error { return nil },
			func() error { return nil },
			func() uint64 { return 0 }, nil
	}
	reg := obs.NewRegistry()
	pacedCtr := reg.Counter("campaign_paced_total",
		"Chunk-delivery pauses taken in response to collector 429 backpressure.")
	client, err := cluster.NewClient(cluster.ClientConfig{
		Targets: targets,
		Route:   route,
		VNodes:  vnodes,
		OnPace: func(d time.Duration) {
			pacedCtr.Inc()
			fmt.Printf("  paced: collector overloaded, backing off %v\n", d.Round(time.Millisecond))
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sink := func(recs []extension.Record) error {
		for _, r := range recs {
			if err := client.AddRecord(r); err != nil {
				return err
			}
		}
		// Flush inside the sink: RunChunk must not commit until the whole
		// chunk is acknowledged.
		return client.Flush()
	}
	return sink, client.Close, pacedCtr.Value, nil
}

// runSmoke is the downscaled kill/resume equivalence check. Two identical
// campaigns stream into two fresh WAL-backed collectors; one runs straight
// through, the other is torn down after its first chunk and rebuilt from
// the checkpoint file (a new Campaign value, like a new process). The final
// aggregate snapshots must be byte-identical.
func runSmoke() error {
	cfg := core.SmallCampaign()
	cfg.Chunks = 2
	cfg.Workers = 4

	dir, err := os.MkdirTemp("", "campaign-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	runInto := func(walDir string, stream func(*core.Campaign, func([]extension.Record) error) error) ([]byte, error) {
		srv, err := collector.OpenServer(collector.Config{
			Shards:   4,
			Registry: obs.NewRegistry(),
			WAL:      collector.WALConfig{Dir: walDir},
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		client := collector.NewClient(srv.URL(), collector.ClientConfig{BatchSize: 1000, FlushEvery: 0})
		camp, err := core.NewCampaign(cfg)
		if err != nil {
			return nil, err
		}
		sink := func(recs []extension.Record) error {
			for _, r := range recs {
				if err := client.AddRecord(r); err != nil {
					return err
				}
			}
			return client.Flush()
		}
		if err := stream(camp, sink); err != nil {
			return nil, err
		}
		if err := client.Close(); err != nil {
			return nil, err
		}
		snap, err := drainedSnapshot(srv)
		if err != nil {
			return nil, err
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return nil, err
		}
		return snap, nil
	}

	// Reference: straight through.
	ref, err := runInto(filepath.Join(dir, "ref"), func(c *core.Campaign, sink func([]extension.Record) error) error {
		for !c.Done() {
			if err := c.RunChunk(sink); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	// Killed-and-resumed: chunk 0, checkpoint, abandon the campaign value,
	// rebuild from disk (different worker count), finish.
	ckPath := filepath.Join(dir, "ck.json")
	resumed, err := runInto(filepath.Join(dir, "resumed"), func(c *core.Campaign, sink func([]extension.Record) error) error {
		if err := c.RunChunk(sink); err != nil {
			return err
		}
		if err := c.SaveCheckpoint(ckPath); err != nil {
			return err
		}
		cfg2 := cfg
		cfg2.Workers = 1
		c2, err := core.NewCampaign(cfg2)
		if err != nil {
			return err
		}
		ck, err := core.LoadCampaignCheckpoint(ckPath)
		if err != nil {
			return err
		}
		if err := c2.Restore(ck); err != nil {
			return err
		}
		for !c2.Done() {
			if err := c2.RunChunk(sink); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	if string(ref) != string(resumed) {
		return fmt.Errorf("resumed aggregate differs from uninterrupted run")
	}

	// Cross-check the wire too: the same campaign materialised locally must
	// decode from its own frames.
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		return err
	}
	var frames []byte
	var n int
	for !camp.Done() {
		if err := camp.RunChunk(func(recs []extension.Record) error {
			frames = append(frames, dataset.MarshalBatch(recs)...)
			n += len(recs)
			return nil
		}); err != nil {
			return err
		}
	}
	decoded := 0
	rd := bytes.NewReader(frames)
	for {
		recs, err := dataset.ReadBatch(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("re-decode: %w", err)
		}
		decoded += len(recs)
	}
	if decoded != n {
		return fmt.Errorf("re-decode count %d, want %d", decoded, n)
	}
	return nil
}

// drainedSnapshot reduces the aggregator's snapshot to its comparable core.
// The client has closed, so every record was acked, and a snapshot covers
// every acked record: one read must show all of them applied.
func drainedSnapshot(srv *collector.Server) ([]byte, error) {
	snap := srv.Aggregator().Snapshot()
	if snap.Processed != snap.Accepted {
		return nil, fmt.Errorf("aggregator applied %d of %d accepted records", snap.Processed, snap.Accepted)
	}
	groups, err := json.Marshal(snap.Groups)
	if err != nil {
		return nil, err
	}
	table, err := json.Marshal(snap.CityTableJSON())
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Groups    json.RawMessage `json:"groups"`
		CityTable json.RawMessage `json:"city_table"`
		Accepted  uint64          `json:"accepted"`
		Processed uint64          `json:"processed"`
	}{groups, table, snap.Accepted, snap.Processed})
}

func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	os.Exit(1)
}
