package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/obs"
)

// startInstance opens one WAL-backed collector server, starts it on addr
// ("127.0.0.1:0" or a previous instance's exact address for a restart) and
// returns it. Each instance gets a private registry — the restarted
// aggregator must not inherit the dead one's counters.
func startInstance(t *testing.T, walDir, addr string) *collector.Server {
	t.Helper()
	srv, err := collector.OpenServer(collector.Config{
		Shards:   2,
		Registry: obs.NewRegistry(),
		WAL:      collector.WALConfig{Dir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestNode(t *testing.T, srv *collector.Server, self string, peers []string) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Server: srv,
		Self:   self,
		Peers:  peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// comparable is the portion of a snapshot the byte-identity contract
// covers: rendered groups, the city table, and the ingest totals. (Per-shard
// stats are topology-dependent by design.)
type comparableSnapshot struct {
	Groups    json.RawMessage `json:"groups"`
	CityTable json.RawMessage `json:"city_table"`
	Accepted  uint64          `json:"accepted"`
	Processed uint64          `json:"processed"`
}

func marshalComparable(t *testing.T, snap *collector.Snapshot) []byte {
	t.Helper()
	groups, err := json.Marshal(snap.Groups)
	if err != nil {
		t.Fatal(err)
	}
	table, err := json.Marshal(snap.CityTableJSON())
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(comparableSnapshot{
		Groups: groups, CityTable: table,
		Accepted: snap.Accepted, Processed: snap.Processed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mergedComparable polls coordinator's /cluster/snapshot until the merged
// state reflects total processed records, then returns its comparable form.
type mergedWire struct {
	Peers    []string `json:"peers"`
	Snapshot struct {
		Groups    json.RawMessage `json:"groups"`
		Accepted  uint64          `json:"accepted"`
		Processed uint64          `json:"processed"`
	} `json:"snapshot"`
	CityTable json.RawMessage `json:"city_table"`
}

func mergedComparable(t *testing.T, coordinator string, total uint64) ([]byte, mergedWire) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + coordinator + PathClusterSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("merged snapshot: %s: %s", resp.Status, body)
		}
		var wire mergedWire
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		if wire.Snapshot.Processed == total {
			out, err := json.Marshal(comparableSnapshot{
				Groups: wire.Snapshot.Groups, CityTable: wire.CityTable,
				Accepted: wire.Snapshot.Accepted, Processed: wire.Snapshot.Processed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return out, wire
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never drained: processed %d of %d", wire.Snapshot.Processed, total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterE2E is the acceptance path: three WAL-backed instances behind
// a ring-routing client, one instance killed and restarted mid-stream with
// its checkpoint deleted (forcing a full log replay), and the merged
// snapshot byte-identical to a single instance that ingested everything.
func TestClusterE2E(t *testing.T) {
	records := testRecords(3000)
	total := uint64(len(records))

	// Reference: one aggregator, every record in arrival order.
	ref := ingestAll(t, 0, 1, records)
	refBytes := marshalComparable(t, ref)

	// Three instances. Servers start first so advertise addresses exist,
	// then the nodes wire them into a static-membership cluster.
	walDirs := make([]string, 3)
	srvs := make([]*collector.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		walDirs[i] = t.TempDir()
		srvs[i] = startInstance(t, walDirs[i], "127.0.0.1:0")
		addrs[i] = srvs[i].Addr()
	}
	nodes := make([]*Node, 3)
	for i := range srvs {
		peers := append([]string(nil), addrs...)
		nodes[i] = newTestNode(t, srvs[i], addrs[i], peers)
	}
	defer func() {
		for i := range srvs {
			nodes[i].Close()
			_ = srvs[i].Shutdown(context.Background())
		}
	}()

	httpClient := &http.Client{}
	client, err := NewClient(ClientConfig{
		Targets:    addrs,
		Route:      RouteRing,
		BatchSize:  256,
		HTTPClient: httpClient,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First half of the stream.
	half := len(records) / 2
	for _, r := range records[:half] {
		if err := client.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill instance 1 gracefully (acked records are fsynced; Shutdown
	// drains), then delete its checkpoint so the restart must rebuild the
	// whole state from the log, and bring it back on the same address.
	nodes[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srvs[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := os.Remove(filepath.Join(walDirs[1], "checkpoint")); err != nil {
		t.Fatalf("delete checkpoint: %v", err)
	}
	httpClient.CloseIdleConnections()
	srvs[1] = startInstance(t, walDirs[1], addrs[1])
	nodes[1] = newTestNode(t, srvs[1], addrs[1], addrs)
	rec := srvs[1].Aggregator().WALRecovery()
	if rec.CheckpointLSN != 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("restart did not fully replay the log: %+v", rec)
	}

	// Second half.
	for _, r := range records[half:] {
		if err := client.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Forwarded != 0 {
		t.Errorf("aligned ring routing forwarded %d records, want 0", st.Forwarded)
	}

	// Every instance answers the merged query with the same bytes, and
	// those bytes equal the single-instance reference.
	for i, coordinator := range addrs {
		got, wire := mergedComparable(t, coordinator, total)
		if len(wire.Peers) != 3 {
			t.Fatalf("coordinator %d merged %d peers, want 3", i, len(wire.Peers))
		}
		if !bytes.Equal(got, refBytes) {
			t.Errorf("coordinator %d: merged snapshot differs from single-instance reference\nmerged: %s\nsingle: %s",
				i, got, refBytes)
		}
	}

	// Ring views converged: every instance reports the same version.
	var versions []string
	for _, addr := range addrs {
		resp, err := http.Get("http://" + addr + PathClusterRing)
		if err != nil {
			t.Fatal(err)
		}
		var ring RingReply
		if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		versions = append(versions, ring.Version)
	}
	if versions[0] != versions[1] || versions[1] != versions[2] {
		t.Errorf("ring versions diverged: %v", versions)
	}
}

// TestForwardOnMisroute sprays batches round-robin so most records land on
// the wrong instance, and verifies the forward path loses nothing: every
// record is accepted exactly once somewhere, forwards are counted in the
// cluster metrics, and the merged result still matches the reference.
func TestForwardOnMisroute(t *testing.T) {
	for _, wire := range []collector.Wire{collector.WireCSV, collector.WireBatch} {
		t.Run(wire.String(), func(t *testing.T) { testForwardOnMisroute(t, wire) })
	}
}

func testForwardOnMisroute(t *testing.T, wire collector.Wire) {
	records := testRecords(1200)
	total := uint64(len(records))
	ref := ingestAll(t, 0, 1, records)

	regs := make([]*obs.Registry, 3)
	srvs := make([]*collector.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		regs[i] = obs.NewRegistry()
		srv, err := collector.OpenServer(collector.Config{Shards: 2, Registry: regs[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	nodes := make([]*Node, 3)
	for i := range srvs {
		nodes[i] = newTestNode(t, srvs[i], addrs[i], addrs)
	}
	defer func() {
		for i := range srvs {
			nodes[i].Close()
			_ = srvs[i].Shutdown(context.Background())
		}
	}()

	client, err := NewClient(ClientConfig{Targets: addrs, Route: RouteRR, Wire: wire, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := client.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Forwarded == 0 {
		t.Fatal("round-robin routing forwarded nothing; misroute path untested")
	}

	// The forward volume the clients saw must match the servers' metric.
	var misrouted uint64
	for _, reg := range regs {
		misrouted += reg.Counter("cluster_misrouted_records_total",
			"Ingested records owned by another instance and forwarded there.").Value()
	}
	if misrouted != st.Forwarded {
		t.Errorf("metric counts %d misrouted records, replies count %d", misrouted, st.Forwarded)
	}

	// Whichever wire the first hop spoke, the second hop is batch frames: on
	// the CSV wire no client posts to /ingest/batch, so every request served
	// there was a forward from a peer.
	if wire == collector.WireCSV {
		var batchPosts uint64
		for _, reg := range regs {
			batchPosts += reg.CounterVec("http_requests_total",
				"HTTP requests served, by path and status code.", "path", "code").
				With(collector.PathIngestBatch, "200").Value()
		}
		if batchPosts == 0 {
			t.Error("no forward landed on /ingest/batch")
		}
	}

	// Zero loss: each record accepted exactly once across the cluster.
	gotBytes, merged := mergedComparable(t, addrs[0], total)
	if merged.Snapshot.Accepted != total {
		t.Errorf("cluster accepted %d records, want exactly %d", merged.Snapshot.Accepted, total)
	}
	// Per-group order survives the forward hop (the client is synchronous
	// and a group's records all funnel to one owner), so even the merged
	// float sums match the reference bit for bit.
	if !bytes.Equal(gotBytes, marshalComparable(t, ref)) {
		t.Error("merged snapshot after forwarding differs from reference")
	}
}
