package collector_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/wal"
)

// releaseSeeds is how many seeds of collector.WriteMixedLog's log
// TestReleaseMatchesRecovery runs, counting up from 41, the seed
// TestRecoveryMixedLogDigest pins. make check runs 50.
var releaseSeeds = flag.Int("release-seeds", 3, "seeds TestReleaseMatchesRecovery runs, from 41 up")

// sealLog seals every segment of the log in dir behind one kind-2 record,
// a node sample as earlier builds logged them, in a segment of its own:
// compaction leaves the highest-based segment alone, so it then reaches
// every record before that one, and recovery counts one more node sample.
func sealLog(t *testing.T, dir string) {
	t.Helper()
	// The smallest segment the writer allows, so the append rotates.
	w, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(2, []byte(`{"node":"Wiltshire","kind":"iperf","down_mbps":100}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// releaseRows reads every dataset a compaction wrote.
func releaseRows(t *testing.T, outputs []string) []extension.Record {
	t.Helper()
	var rows []extension.Record
	for _, out := range outputs {
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := dataset.ReadExtensionCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", out, err)
		}
		rows = append(rows, rs...)
	}
	return rows
}

// rowDiff compares two record multisets by their dataset rows, and
// describes the first difference ("" when they are equal).
func rowDiff(got, want []extension.Record) string {
	keys := func(recs []extension.Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = strings.Join(dataset.MarshalExtensionRow(r), ",")
		}
		slices.Sort(out)
		return out
	}
	g, w := keys(got), keys(want)
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("%d rows, want %d; first difference %q, want %q", len(g), len(w), g[i], w[i])
		}
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d rows, want %d", len(g), len(w))
	}
	return ""
}

// TestReleaseMatchesRecovery seals and compacts every segment of a mixed
// log, then recovers the log. The release must hold exactly the rows
// recovery applies, as a multiset, and compaction must skip what recovery
// skips. Both are held to what the log's writer wrote, not to what a reader
// of the log makes of it.
func TestReleaseMatchesRecovery(t *testing.T) {
	for seed := int64(41); seed < 41+int64(*releaseSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir, rows, corrupt, nodes := collector.WriteMixedLog(t, seed)
			sealLog(t, dir)
			res, err := cluster.CompactColdSegments(cluster.CompactConfig{WALDir: dir, OutDir: t.TempDir()})
			if err != nil {
				t.Fatalf("compact: %v (%+v)", err, res)
			}
			if res.Compacted != res.ColdSegments {
				t.Fatalf("compacted %d of %d sealed segments", res.Compacted, res.ColdSegments)
			}
			if d := rowDiff(releaseRows(t, res.Outputs), rows); d != "" {
				t.Fatalf("release: %s", d)
			}
			if res.ExtensionRecords != len(rows) || res.SkippedCorrupt != corrupt || res.SkippedNodeRecords != nodes {
				t.Fatalf("compaction %+v; want %d records, %d corrupt and %d node samples",
					res, len(rows), corrupt, nodes)
			}
			agg, err := collector.OpenAggregator(collector.Config{
				Shards: 4, Registry: obs.NewRegistry(), WAL: collector.WALConfig{Dir: dir},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			// The node sample that sealed the log is in the one segment
			// compaction left alone.
			if rec := agg.WALRecovery(); rec.ReplayedRecords != uint64(res.ExtensionRecords) ||
				rec.SkippedCorrupt != res.SkippedCorrupt || rec.SkippedNodeRecords != res.SkippedNodeRecords+1 {
				t.Fatalf("recovery %+v; compaction %+v", rec, res)
			}
		})
	}
}

// FuzzReplayBatchFrame drives arbitrary bytes through the full durable
// path: the payload is appended to a real WAL as a batch frame and sealed
// behind a node sample, and startup recovery must never panic — a
// decodable frame replays every record whose PTT ingest accepts and counts
// the others as corrupt, anything else is skipped and counted, exactly
// once. Compacting the sealed segment must release the rows recovery
// applies and skip what it skips.
func FuzzReplayBatchFrame(f *testing.F) {
	for _, n := range []int{0, 1, 50} {
		f.Add(dataset.MarshalBatch(collector.BatchTestRecords(3, n)))
	}
	bad := collector.BatchTestRecords(3, 8)
	bad[2].PTTMs, bad[5].PTTMs, bad[6].PTTMs = math.Inf(1), math.NaN(), 1e308
	f.Add(dataset.MarshalBatch(bad))
	f.Add([]byte("SLB1 not a frame"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > wal.MaxPayload {
			t.Skip("exceeds WAL payload bound")
		}
		dir := t.TempDir()
		w, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(collector.WALKindExtensionBatch, data); err != nil {
			w.Close()
			t.Skipf("append rejected: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sealLog(t, dir)
		// Compaction only reads the log; recovery's final checkpoint on
		// Close prunes it, so compaction runs first.
		res, err := cluster.CompactColdSegments(cluster.CompactConfig{WALDir: dir, OutDir: t.TempDir()})
		if err != nil {
			t.Fatalf("compaction failed: %v", err)
		}
		agg, err := collector.OpenAggregator(collector.Config{
			Shards:   2,
			Registry: obs.NewRegistry(),
			WAL:      collector.WALConfig{Dir: dir},
		})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		rec := agg.WALRecovery()
		recs, derr := dataset.UnmarshalBatch(data)
		var kept []extension.Record
		if derr == nil {
			var bad uint64
			for _, r := range recs {
				if !collector.ValidPTT(r.PTTMs) {
					bad++
					continue
				}
				kept = append(kept, r)
			}
			if rec.ReplayedRecords != uint64(len(recs))-bad || rec.SkippedCorrupt != bad {
				t.Fatalf("valid frame of %d records, %d with a PTT ingest refuses: replayed %d, corrupt %d",
					len(recs), bad, rec.ReplayedRecords, rec.SkippedCorrupt)
			}
		} else if rec.ReplayedRecords != 0 || rec.SkippedCorrupt != 1 {
			t.Fatalf("invalid frame: replayed %d, corrupt %d", rec.ReplayedRecords, rec.SkippedCorrupt)
		}
		if rec.SkippedNodeRecords != 1 {
			t.Fatalf("recovery counted %d node samples, want the one that sealed the log", rec.SkippedNodeRecords)
		}
		if err := agg.Close(); err != nil {
			t.Fatal(err)
		}
		if res.Compacted != 1 || res.ExtensionRecords != int(rec.ReplayedRecords) ||
			res.SkippedCorrupt != rec.SkippedCorrupt || res.SkippedNodeRecords != 0 {
			t.Fatalf("compaction %+v; recovery %+v", res, rec)
		}
		if d := rowDiff(releaseRows(t, res.Outputs), kept); d != "" {
			t.Fatalf("release: %s", d)
		}
	})
}
