package collector

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"starlinkview/internal/obs"
	"starlinkview/internal/wal"
)

// copyWALDir snapshots the on-disk WAL state — what a machine that lost
// power right now would find on restart.
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestOpenAggregatorRejectsDropPolicy(t *testing.T) {
	_, err := OpenAggregator(Config{
		Policy: DropNewest,
		WAL:    WALConfig{Dir: t.TempDir()},
	})
	if err == nil {
		t.Fatal("WAL with DropNewest must be rejected: a logged-then-shed record would resurrect on replay")
	}
}

func TestSyncWALWithoutWAL(t *testing.T) {
	agg := NewAggregator(Config{Shards: 1})
	defer agg.Close()
	if err := agg.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL without a WAL: %v", err)
	}
	if agg.WALStats().Enabled {
		t.Fatal("WALStats.Enabled without a WAL")
	}
	if err := agg.Checkpoint(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Checkpoint without a WAL: %v, want ErrNoWAL", err)
	}
}

// TestAggregatorWALHardCrashRecovery kills the aggregator the hard way: the
// WAL directory is copied after a commit barrier — no Close, no final
// checkpoint — and a fresh aggregator opened on the copy must rebuild every
// committed record.
func TestAggregatorWALHardCrashRecovery(t *testing.T) {
	walDir := t.TempDir()
	agg, err := OpenAggregator(Config{
		Shards: 4, QueueLen: 256,
		WAL: WALConfig{Dir: walDir, SegmentBytes: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 600
	for i := 0; i < n; i++ {
		city := []string{"London", "Seattle", "Sydney"}[rng.Intn(3)]
		isp := []string{"starlink", "broadband"}[rng.Intn(2)]
		if offerRecords(agg, testRecord(rng, city, isp)) != 1 {
			t.Fatal("offer failed")
		}
	}
	if err := agg.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// The crash point: everything committed is on disk, nothing after. The
	// reference state comes from draining the original afterwards — its
	// final checkpoint lands in walDir, not in the copy.
	crashDir := copyWALDir(t, walDir)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	before := agg.Snapshot()

	recovered, err := OpenAggregator(Config{
		// A different shard count on restart must not matter: checkpoints
		// and replay route by key, not by shard.
		Shards: 7, QueueLen: 256,
		WAL: WALConfig{Dir: crashDir, SegmentBytes: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered.WALRecovery()
	if rec.ReplayedRecords != n || rec.RestoredRecords != 0 || rec.SkippedCorrupt != 0 {
		t.Fatalf("recovery %+v, want %d replayed records and no checkpoint", rec, n)
	}
	after := recovered.Snapshot()
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}

	if after.Processed != before.Processed || after.Accepted != before.Accepted {
		t.Fatalf("recovered processed=%d accepted=%d, want %d/%d",
			after.Processed, after.Accepted, before.Processed, before.Accepted)
	}
	if len(after.Groups) != len(before.Groups) {
		t.Fatalf("recovered %d groups, want %d", len(after.Groups), len(before.Groups))
	}
	for i, want := range before.Groups {
		got := after.Groups[i]
		if got.City != want.City || got.ISP != want.ISP ||
			got.Count != want.Count || got.Domains != want.Domains {
			t.Errorf("group %d: got %+v, want %+v", i, got, want)
		}
		// Frames store PTT at milli precision (3 decimals), so ingest
		// quantises values by up to 0.0005 ms before the live shards or the
		// log see them: replay applies the same values. The bounds allow
		// for that quantisation anyway, plus the sketch bound.
		if math.Abs(got.MeanPTTMs-want.MeanPTTMs) > 1e-3 {
			t.Errorf("group %s/%s: mean %v, want %v", got.City, got.ISP, got.MeanPTTMs, want.MeanPTTMs)
		}
		if math.Abs(got.P50PTTMs-want.P50PTTMs) > 0.02*want.P50PTTMs+1e-3 {
			t.Errorf("group %s/%s: p50 %v, want %v", got.City, got.ISP, got.P50PTTMs, want.P50PTTMs)
		}
	}
}

// TestAggregatorCheckpointPrunesLog verifies the replay-from-last-checkpoint
// path: after an explicit checkpoint, covered segments are pruned, crash
// recovery restores from the checkpoint, and only post-checkpoint records
// replay.
func TestAggregatorCheckpointPrunesLog(t *testing.T) {
	walDir := t.TempDir()
	agg, err := OpenAggregator(Config{
		Shards: 2, QueueLen: 256,
		WAL: WALConfig{Dir: walDir, SegmentBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const beforeCkpt, afterCkpt = 400, 150
	for i := 0; i < beforeCkpt; i++ {
		if offerRecords(agg, testRecord(rng, "London", "starlink")) != 1 {
			t.Fatal("offer failed")
		}
	}
	segsBefore := agg.WALStats().Segments
	if err := agg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := agg.WALStats()
	if st.Checkpoints != 1 || st.LastCheckpointLSN != uint64(beforeCkpt) {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	if segsBefore > 1 && st.Segments >= segsBefore {
		t.Fatalf("checkpoint kept %d of %d segments, expected pruning", st.Segments, segsBefore)
	}
	for i := 0; i < afterCkpt; i++ {
		if offerRecords(agg, testRecord(rng, "Seattle", "broadband")) != 1 {
			t.Fatal("offer failed")
		}
	}
	if err := agg.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	crashDir := copyWALDir(t, walDir)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenAggregator(Config{
		Shards: 2, QueueLen: 256,
		WAL: WALConfig{Dir: crashDir, SegmentBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	rec := recovered.WALRecovery()
	if rec.CheckpointLSN != uint64(beforeCkpt) ||
		rec.RestoredRecords != beforeCkpt || rec.ReplayedRecords != afterCkpt {
		t.Fatalf("recovery %+v, want checkpoint at %d plus %d replayed", rec, beforeCkpt, afterCkpt)
	}
	snap := recovered.Snapshot()
	if snap.Processed != beforeCkpt+afterCkpt {
		t.Fatalf("recovered processed=%d, want %d", snap.Processed, beforeCkpt+afterCkpt)
	}
}

// TestAggregatorRecoveryRejectsRelErrMismatch pins the checkpoint guard: a
// checkpoint taken at one sketch accuracy cannot silently feed an
// aggregator configured with another.
func TestAggregatorRecoveryRejectsRelErrMismatch(t *testing.T) {
	walDir := t.TempDir()
	agg, err := OpenAggregator(Config{
		SketchRelErr: 0.01,
		WAL:          WALConfig{Dir: walDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	offerRecords(agg, testRecord(rng, "London", "starlink"))
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAggregator(Config{
		SketchRelErr: 0.05,
		WAL:          WALConfig{Dir: walDir},
	}); err == nil {
		t.Fatal("recovery with a mismatched sketch error must fail loudly")
	}
}

// TestAggregatorRecoverySkipsCorruptPayload: a durable frame whose payload
// no longer decodes is skipped and counted, never fatal. A node sample an
// earlier build logged is skipped and counted too, not replayed.
func TestAggregatorRecoverySkipsCorruptPayload(t *testing.T) {
	walDir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(99, []byte("not a record kind the collector knows")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(walKindNode, []byte(`{"node":"Wiltshire","kind":"iperf","down_mbps":100}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	agg, err := OpenAggregator(Config{WAL: WALConfig{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	rec := agg.WALRecovery()
	if rec.SkippedCorrupt != 1 || rec.SkippedNodeRecords != 1 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery %+v, want 1 corrupt and 1 node sample skipped, nothing replayed", rec)
	}
	if snap := agg.Snapshot(); snap.Accepted != 0 || len(snap.Groups) != 0 {
		t.Fatalf("snapshot holds %d records in %d groups, want none", snap.Accepted, len(snap.Groups))
	}
}

// checkpointFixtureBrowsingDigest is the snapshotDigest of the fixture's
// browsing half: testdata/checkpoint.json restored with its node groups cut
// out, 40 records in 22 groups. The fixture is the final checkpoint of a
// two-shard aggregator that also held 8 node samples, written while
// checkpoints still had a payload form of their own.
const checkpointFixtureBrowsingDigest = "9b305cf14ac8bc11d435c60d7417a23cf412885ce66cd9b5d0002529fe655a4d"

// restoreFixture opens a two-shard aggregator on a WAL directory whose
// checkpoint, at LSN 29, is payload.
func restoreFixture(t *testing.T, payload []byte) *Aggregator {
	t.Helper()
	dir := t.TempDir()
	if err := wal.SaveCheckpoint(nil, dir, 29, payload); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAggregator(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCheckpointFixtureRestores restores a checkpoint payload from an earlier
// build: it must load, restore every browsing record, count the node samples
// as skipped, and serve the snapshot of the fixture's browsing half.
func TestCheckpointFixtureRestores(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	a := restoreFixture(t, payload)
	defer a.Close()
	if rec := a.WALRecovery(); rec.CheckpointLSN != 29 || rec.RestoredRecords != 40 || rec.SkippedNodeRecords != 8 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery %+v, want 40 records restored and 8 node samples skipped at LSN 29", rec)
	}
	if got := snapshotDigest(t, a); got != checkpointFixtureBrowsingDigest {
		t.Fatalf("restored snapshot digest %s, want %s", got, checkpointFixtureBrowsingDigest)
	}
}

// TestCheckpointFixtureBrowsingHalf restores testdata/checkpoint.json with
// its node groups cut out of the payload: the browsing half must restore its
// 40 records and serve checkpointFixtureBrowsingDigest.
func TestCheckpointFixtureBrowsingHalf(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	a := restoreFixture(t, withoutNodes(t, payload))
	defer a.Close()
	if rec := a.WALRecovery(); rec.CheckpointLSN != 29 || rec.RestoredRecords != 40 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery %+v, want 40 records restored at LSN 29", rec)
	}
	if got := snapshotDigest(t, a); got != checkpointFixtureBrowsingDigest {
		t.Fatalf("restored snapshot digest %s, want %s", got, checkpointFixtureBrowsingDigest)
	}
}
