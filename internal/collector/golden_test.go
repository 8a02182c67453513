package collector

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// goldenRecords draws a workload in which some cities have one non-Starlink
// ISP, some several (so the city table unions domain sets and merges
// sketches), and some no Starlink at all. PTTs are whole microseconds, which
// the CSV wire, the batch wire and WAL replay all carry exactly.
func goldenRecords(r *rand.Rand, n int) []extension.Record {
	cities := []string{"London", "Seattle", "Sydney", "Barcelona", "São Paulo", "Zürich", "Kraków", "Lima", "Oslo", "Cairo", "Reykjavík", "Perth"}
	ispSets := [][]string{
		{"starlink", "terrestrial"},
		{"starlink", "terrestrial", "dsl", "cable"},
		{"terrestrial", "dsl"},
		{"starlink", "dsl", "fibre"},
	}
	domains := make([]string, 60)
	for i := range domains {
		domains[i] = fmt.Sprintf("site%02d.example", i)
	}
	base := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]extension.Record, n)
	for i := range recs {
		c := r.Intn(len(cities))
		isps := ispSets[c%len(ispSets)]
		ptt := float64(r.Intn(400000)) / 1000
		if r.Intn(50) == 0 {
			ptt = 0
		}
		recs[i] = extension.Record{
			UserID: fmt.Sprintf("u%03d", r.Intn(80)), City: cities[c], Country: "XX",
			ISP: isps[r.Intn(len(isps))], ASN: 14593, At: base.Add(time.Duration(i) * time.Second),
			// A skewed draw, so groups share popular domains and differ in the tail.
			Domain: domains[int(float64(len(domains))*r.Float64()*r.Float64())],
			Rank:   r.Intn(100000), PTTMs: ptt, PLTMs: float64(r.Intn(3000000)) / 1000,
		}
	}
	return recs
}

// goldenNodeSamples draws volunteer-node samples, which earlier builds
// logged as kind-2 records: the legacy logs of the recovery and replay tests
// still hold them.
func goldenNodeSamples(r *rand.Rand, n int) []dataset.NodeSample {
	nodes := []string{"Wiltshire", "Toronto", "Warsaw"}
	kinds := []string{"iperf", "speedtest"}
	base := time.Date(2022, 4, 11, 9, 0, 0, 0, time.UTC)
	out := make([]dataset.NodeSample, n)
	for i := range out {
		out[i] = dataset.NodeSample{
			Node: nodes[r.Intn(len(nodes))], Kind: kinds[r.Intn(len(kinds))],
			At:       base.Add(time.Duration(i) * time.Minute),
			DownMbps: float64(r.Intn(300000)) / 1000, UpMbps: float64(r.Intn(30000)) / 1000,
			PingMs: float64(r.Intn(90000)) / 1000, LossPct: float64(r.Intn(500)) / 100,
		}
	}
	return out
}

// snapshotDigest hashes what /snapshot and /cluster/state would serve for
// the aggregator's current state: the reply with taken_at fixed and the
// shards' apply-latency percentiles (wall-clock dependent) zeroed, then the
// ExportState JSON. Both are hashed with the snapshot's and the state's
// top-level "nodes" member removed, and with nothing else left out: that
// member held the volunteer-node table the collector once served beside
// the browsing groups. Every digest pinned through this helper was re-pinned
// without it, on the code it was first pinned against.
func snapshotDigest(t *testing.T, a *Aggregator) string {
	t.Helper()
	snap := a.Snapshot()
	for i := range snap.Shards {
		snap.Shards[i].IngestP50Us, snap.Shards[i].IngestP95Us, snap.Shards[i].IngestP99Us = 0, 0, 0
	}
	reply, err := json.Marshal(SnapshotReply{
		TakenAt:   time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC),
		Snapshot:  snap,
		CityTable: snap.CityTableJSON(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(reply, &fields); err != nil {
		t.Fatal(err)
	}
	fields["snapshot"] = withoutNodes(t, fields["snapshot"])
	if reply, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	st, err := snap.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(reply)
	h.Write(withoutNodes(t, state))
	return hex.EncodeToString(h.Sum(nil))
}

// withoutNodes re-encodes the JSON object obj without its "nodes" member,
// members in key order.
func withoutNodes(t *testing.T, obj []byte) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(obj, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "nodes")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenSnapshotBrowsingDigest was pinned while the collector still took
// volunteer-node samples beside browsing records: it is the digest of the
// same seeded records the mixed golden of that time ingested, with the node
// samples left out. It covers what /snapshot and /cluster/state serve, so it
// must not move.
const goldenSnapshotBrowsingDigest = "28dae501631004aa143d9e2f4a5fce228a9f51cd870294f30a652e1bcfb60ef3"

// TestSnapshotGoldenDigestBrowsing pins the read path's output over a seeded
// ingest of browsing records alone, in batch frames and one-record frames,
// with a checkpoint half-way. The same digest must come back from the live
// aggregator, from a crash copy of its WAL directory (checkpoint plus
// replayed tail), and from a clean restart (final checkpoint alone).
func TestSnapshotGoldenDigestBrowsing(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	recs := goldenRecords(r, 6000)
	dir := t.TempDir()
	open := func(dir string) *Aggregator {
		a, err := OpenAggregator(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := open(dir)
	ingest := func(recs []extension.Record) {
		// Frames of uneven size, every fifth record sent alone in a frame
		// of its own.
		for len(recs) > 0 {
			n := min(len(recs), 1+r.Intn(400))
			var frame []extension.Record
			for _, rec := range recs[:n] {
				if r.Intn(5) == 0 {
					if offerRecords(a, rec) != 1 {
						t.Fatal("offer rejected")
					}
					continue
				}
				frame = append(frame, rec)
			}
			if len(frame) > 0 {
				v, err := a.views.Parse(dataset.MarshalBatch(frame))
				if err != nil {
					t.Fatal(err)
				}
				if acc, _ := a.OfferBatchView(v, trace.SpanContext{}); acc != len(frame) {
					t.Fatalf("frame accepted %d of %d", acc, len(frame))
				}
			}
			recs = recs[n:]
		}
	}
	ingest(recs[:len(recs)/2])
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(recs[len(recs)/2:])

	check := func(label string, a *Aggregator) {
		t.Helper()
		if got := snapshotDigest(t, a); got != goldenSnapshotBrowsingDigest {
			t.Errorf("%s: snapshot digest %s, want %s", label, got, goldenSnapshotBrowsingDigest)
		}
	}
	check("live", a)

	if err := a.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	crashed := open(copyWALDir(t, dir))
	if rec := crashed.WALRecovery(); rec.CheckpointLSN == 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("crash copy should restore a checkpoint and replay a tail: %+v", rec)
	}
	check("checkpoint + replay", crashed)
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	check("closed", a)
	restarted := open(dir)
	if rec := restarted.WALRecovery(); rec.ReplayedRecords != 0 {
		t.Fatalf("clean restart replayed %d records, want the final checkpoint alone", rec.ReplayedRecords)
	}
	check("restart", restarted)
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}
}
