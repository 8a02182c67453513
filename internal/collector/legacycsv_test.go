package collector

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math/rand"
	"testing"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// legacyCSVPayload is a kind-1 WAL payload as the collector wrote them when
// the CSV wire logged one record at a time: the record's dataset CSV row.
func legacyCSVPayload(t *testing.T, rec extension.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(dataset.MarshalExtensionRow(rec)); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayLegacyCSVRows replays a log of kind-1 rows interleaved with
// batch frames and node samples, as a collector that logged its CSV wire a
// record at a time left them. Recovery must rebuild what the same records,
// offered in the same order as frames, build live, count each row whose PTT
// ingest refuses as corrupt, and count each node sample as skipped.
func TestReplayLegacyCSVRows(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	recs := goldenRecords(r, 3000)
	samples := goldenNodeSamples(r, 60)
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewAggregator(Config{Shards: 4, Registry: obs.NewRegistry()})
	var bad, offered, nodes uint64
	for len(recs) > 0 {
		n := min(len(recs), 1+r.Intn(200))
		if r.Intn(2) == 0 {
			frame := dataset.MarshalBatch(recs[:n])
			if _, err := w.Append(WALKindExtensionBatch, frame); err != nil {
				t.Fatal(err)
			}
			if acc, _ := ref.OfferExtensionFrame(frame, nil, trace.SpanContext{}); acc != n {
				t.Fatalf("reference accepted %d of %d", acc, n)
			}
			offered += uint64(n)
		} else {
			for _, rec := range recs[:n] {
				if r.Intn(40) == 0 {
					rec.PTTMs = []float64{-1, 2 * maxPTTMs}[r.Intn(2)]
					bad++
				} else {
					if acc, _ := ref.OfferExtensionFrame(nil, []extension.Record{rec}, trace.SpanContext{}); acc != 1 {
						t.Fatal("reference rejected a record")
					}
					offered++
				}
				if _, err := w.Append(WALKindExtension, legacyCSVPayload(t, rec)); err != nil {
					t.Fatal(err)
				}
			}
		}
		recs = recs[n:]
		for _, s := range samples[:min(len(samples), r.Intn(3))] {
			payload, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(walKindNode, append(payload, '\n')); err != nil {
				t.Fatal(err)
			}
			nodes++
			samples = samples[1:]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if bad == 0 || nodes == 0 {
		t.Fatalf("the log holds %d out-of-range rows and %d node samples; want both", bad, nodes)
	}

	replayed, err := OpenAggregator(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if rec := replayed.WALRecovery(); rec.ReplayedRecords != offered || rec.SkippedCorrupt != bad || rec.SkippedNodeRecords != nodes {
		t.Fatalf("recovery %+v, want %d replayed, %d skipped and %d node samples skipped", rec, offered, bad, nodes)
	}
	if got, want := snapshotDigest(t, replayed), snapshotDigest(t, ref); got != want {
		t.Fatalf("replayed snapshot %s differs from the frame-fed reference %s", got, want)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}
