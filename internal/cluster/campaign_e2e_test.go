package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/extension"
)

// campaignE2EConfig is a downscaled chunked campaign: small enough for CI,
// still crossing chunk boundaries, multiple cities, and both ISP classes.
func campaignE2EConfig(workers int) core.CampaignConfig {
	return core.CampaignConfig{
		Seed:          7,
		Epoch:         time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC),
		Users:         500,
		Cities:        5,
		Chunks:        3,
		ChunkHours:    6,
		StarlinkShare: 0.5,
		PagesPerDay:   8,
		Domains:       300,
		Workers:       workers,
	}
}

// campaignCluster is a 3-instance WAL-backed cluster plus a batch-wire ring
// client, with enough handles to kill and restart instances mid-campaign.
type campaignCluster struct {
	t       *testing.T
	walDirs []string
	srvs    []*collector.Server
	nodes   []*Node
	addrs   []string
	http    *http.Client
	client  *Client
}

func startCampaignCluster(t *testing.T) *campaignCluster {
	t.Helper()
	cc := &campaignCluster{t: t, http: &http.Client{}}
	cc.walDirs = make([]string, 3)
	cc.srvs = make([]*collector.Server, 3)
	cc.addrs = make([]string, 3)
	for i := range cc.srvs {
		cc.walDirs[i] = t.TempDir()
		cc.srvs[i] = startInstance(t, cc.walDirs[i], "127.0.0.1:0")
		cc.addrs[i] = cc.srvs[i].Addr()
	}
	cc.nodes = make([]*Node, 3)
	for i := range cc.srvs {
		cc.nodes[i] = newTestNode(t, cc.srvs[i], cc.addrs[i], cc.addrs)
	}
	client, err := NewClient(ClientConfig{
		Targets:    cc.addrs,
		Route:      RouteRing,
		BatchSize:  256,
		HTTPClient: cc.http,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc.client = client
	t.Cleanup(func() {
		for i := range cc.srvs {
			cc.nodes[i].Close()
			_ = cc.srvs[i].Shutdown(context.Background())
		}
	})
	return cc
}

// sink adapts the cluster client to a campaign chunk sink: the chunk only
// commits once every record is flushed and acknowledged.
func (cc *campaignCluster) sink(recs []extension.Record) error {
	for _, r := range recs {
		if err := cc.client.AddRecord(r); err != nil {
			return err
		}
	}
	return cc.client.Flush()
}

// restartInstance shuts instance i down, deletes its WAL checkpoint so the
// restart replays every logged batch frame, and brings it back on the same
// address.
func (cc *campaignCluster) restartInstance(i int) {
	cc.t.Helper()
	cc.nodes[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cc.srvs[i].Shutdown(ctx); err != nil {
		cc.t.Fatal(err)
	}
	cancel()
	if err := os.Remove(filepath.Join(cc.walDirs[i], "checkpoint")); err != nil {
		cc.t.Fatalf("delete checkpoint: %v", err)
	}
	cc.http.CloseIdleConnections()
	cc.srvs[i] = startInstance(cc.t, cc.walDirs[i], cc.addrs[i])
	cc.nodes[i] = newTestNode(cc.t, cc.srvs[i], cc.addrs[i], cc.addrs)
	rec := cc.srvs[i].Aggregator().WALRecovery()
	if rec.SkippedCorrupt != 0 {
		cc.t.Fatalf("restart skipped %d corrupt frames", rec.SkippedCorrupt)
	}
}

// TestCampaignKillResumeClusterE2E is the streamed-campaign acceptance
// test: a chunked campaign over the batch wire into a 3-instance cluster,
// interrupted three ways — killed between chunks and rebuilt from its
// checkpoint file under a different worker count, aborted mid-chunk before
// anything was delivered, and with a collector instance crash-restarted
// (full WAL batch-frame replay) between chunks — must leave the merged
// cluster snapshot byte-identical to an uninterrupted run.
func TestCampaignKillResumeClusterE2E(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Reference: uninterrupted campaign into a fresh cluster.
			ref := startCampaignCluster(t)
			refCamp, err := core.NewCampaign(campaignE2EConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			var total uint64
			for !refCamp.Done() {
				if err := refCamp.RunChunk(func(recs []extension.Record) error {
					total += uint64(len(recs))
					return ref.sink(recs)
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.client.Close(); err != nil {
				t.Fatal(err)
			}
			if total == 0 {
				t.Fatal("campaign produced no records")
			}
			refBytes, _ := mergedComparable(t, ref.addrs[0], total)

			// Interrupted: same campaign, fresh cluster, every supported
			// failure injected.
			cc := startCampaignCluster(t)
			ckPath := filepath.Join(t.TempDir(), "campaign.ckpt")
			camp, err := core.NewCampaign(campaignE2EConfig(workers))
			if err != nil {
				t.Fatal(err)
			}

			// Chunk 0 delivered, checkpoint written.
			if err := camp.RunChunk(cc.sink); err != nil {
				t.Fatal(err)
			}
			if err := camp.SaveCheckpoint(ckPath); err != nil {
				t.Fatal(err)
			}

			// Failure 1 — killed between chunks: abandon the campaign value
			// and rebuild from the checkpoint file, resuming with a
			// different worker count (the stream must not care).
			resumedCfg := campaignE2EConfig(5 - workers)
			camp, err = core.NewCampaign(resumedCfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := core.LoadCampaignCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := camp.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if camp.NextChunk() != 1 {
				t.Fatalf("resumed at chunk %d, want 1", camp.NextChunk())
			}

			// Failure 2 — killed mid-chunk, before anything reached the
			// wire: RunChunk's sink never gets to deliver. The campaign
			// must stay at the old boundary and the re-run must be what the
			// uninterrupted run produced.
			abort := fmt.Errorf("killed mid-chunk")
			if err := camp.RunChunk(func([]extension.Record) error { return abort }); err != abort {
				t.Fatalf("aborted RunChunk returned %v", err)
			}
			if camp.NextChunk() != 1 {
				t.Fatalf("mid-chunk abort advanced cursor to %d", camp.NextChunk())
			}

			// Chunk 1 for real.
			if err := camp.RunChunk(cc.sink); err != nil {
				t.Fatal(err)
			}
			if err := camp.SaveCheckpoint(ckPath); err != nil {
				t.Fatal(err)
			}

			// Failure 3 — collector instance crash between chunks: full
			// WAL replay from logged batch frames, back on the same
			// address.
			cc.restartInstance(1)

			// Remaining chunks.
			for !camp.Done() {
				if err := camp.RunChunk(cc.sink); err != nil {
					t.Fatal(err)
				}
				if err := camp.SaveCheckpoint(ckPath); err != nil {
					t.Fatal(err)
				}
			}
			if err := cc.client.Close(); err != nil {
				t.Fatal(err)
			}
			if st := cc.client.Stats(); st.Forwarded != 0 {
				t.Errorf("aligned ring routing forwarded %d records", st.Forwarded)
			}

			gotBytes, wire := mergedComparable(t, cc.addrs[0], total)
			if len(wire.Peers) != 3 {
				t.Fatalf("merged %d peers, want 3", len(wire.Peers))
			}
			if !bytes.Equal(gotBytes, refBytes) {
				t.Errorf("workers=%d: interrupted campaign's merged snapshot differs from uninterrupted run\ninterrupted: %s\nreference:   %s",
					workers, gotBytes, refBytes)
			}
		})
	}
}
