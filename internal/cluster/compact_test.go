package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/wal"
)

// legacyRow is a kind-1 WAL payload as collectors wrote them when the CSV
// wire logged one record at a time: the record's dataset CSV row.
func legacyRow(t *testing.T, r record) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(dataset.MarshalExtensionRow(r)); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walKindNode is the kind of the volunteer-node samples, one JSON line each,
// that logs written by earlier builds hold between browsing records.
const walKindNode = 2

// compactCSVDigest hashes the names and bytes of every CSV dataset
// TestCompactColdSegments's first pass writes. It was pinned while
// compaction still wrote the log's node samples out beside the CSV, so it
// must not move.
const compactCSVDigest = "38d0699b77b2a7af179d2d01a09fad185df20ce02be55faee35e869de9af970b"

// TestCompactColdSegments drives a WAL through several rotations, with
// browsing records logged both as kind-1 CSV rows (as older logs hold them)
// and as batch frames between node samples (as earlier builds logged them),
// compacts beside the live writer, and checks the outputs are exactly the
// sealed segments' records in release order, with no node-sample dataset —
// then that a second pass is a no-op and a second output directory is
// byte-identical.
func TestCompactColdSegments(t *testing.T) {
	walDir := t.TempDir()
	outDir := filepath.Join(t.TempDir(), "out")

	w, err := wal.Open(wal.Config{Dir: walDir, SegmentBytes: 8 << 10}) // force several rotations
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(kind byte, payload []byte) {
		t.Helper()
		if _, err := w.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	records := testRecords(600)
	samples := testSamples(120)
	for i := 0; i < len(records); i += 50 {
		chunk := records[i:min(i+50, len(records))]
		if i%100 == 0 {
			for _, r := range chunk {
				appendRec(collector.WALKindExtension, legacyRow(t, r))
			}
		} else {
			appendRec(collector.WALKindExtensionBatch, dataset.MarshalBatch(chunk))
		}
		for _, s := range samples[i/5 : i/5+10] {
			payload, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			appendRec(walKindNode, append(payload, '\n'))
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	segs, err := wal.ListSegments(nil, walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments, need rotations to test compaction", len(segs))
	}

	// Count what the sealed segments actually hold, straight off the log.
	wantExt, nodes, rows := 0, 0, 0
	for _, seg := range segs[:len(segs)-1] {
		f, err := os.Open(filepath.Join(walDir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		_, err = wal.ReadSegment(f, func(r wal.Rec) error {
			switch r.Kind {
			case collector.WALKindExtension:
				wantExt++
				rows++
			case collector.WALKindExtensionBatch:
				recs, err := collector.DecodeWALExtensionBatch(r.Payload)
				if err != nil {
					return err
				}
				wantExt += len(recs)
			case walKindNode:
				nodes++
			}
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	if rows == 0 || rows == wantExt || nodes == 0 {
		t.Fatalf("sealed segments hold %d CSV rows of %d records and %d node samples; want all three", rows, wantExt, nodes)
	}

	// Compact while the writer is still live: sealed segments are
	// immutable, so this must be safe and complete.
	res, err := CompactColdSegments(CompactConfig{WALDir: walDir, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdSegments != len(segs)-1 {
		t.Errorf("cold segments = %d, want %d", res.ColdSegments, len(segs)-1)
	}
	if res.ExtensionRecords != wantExt {
		t.Errorf("compacted %d records, want %d", res.ExtensionRecords, wantExt)
	}

	// Outputs must all be CSV, parse as release datasets and be sorted in
	// release order.
	gotExt := 0
	h := sha256.New()
	for _, out := range res.Outputs {
		if !strings.HasSuffix(out, ".csv") {
			t.Errorf("compaction wrote %s; want CSV datasets only", out)
			continue
		}
		body, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(out) + "\n"))
		h.Write(body)
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := dataset.ReadExtensionCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", out, err)
		}
		gotExt += len(rs)
		if !sort.SliceIsSorted(rs, func(i, j int) bool {
			if rs[i].City != rs[j].City {
				return rs[i].City < rs[j].City
			}
			if rs[i].ISP != rs[j].ISP {
				return rs[i].ISP < rs[j].ISP
			}
			return rs[i].At.Before(rs[j].At)
		}) {
			t.Errorf("%s is not in release order", out)
		}
	}
	if gotExt != wantExt {
		t.Errorf("outputs hold %d records, want %d", gotExt, wantExt)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compactCSVDigest {
		t.Errorf("CSV outputs digest %s, want %s", got, compactCSVDigest)
	}
	if nodeOuts, err := filepath.Glob(filepath.Join(outDir, "*.nodes.json")); err != nil || len(nodeOuts) != 0 {
		t.Errorf("node-sample datasets in the output: %v (%v)", nodeOuts, err)
	}

	// Idempotency: a second pass writes nothing.
	res2, err := CompactColdSegments(CompactConfig{WALDir: walDir, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Compacted != 0 || len(res2.Outputs) != 0 {
		t.Errorf("second pass rewrote %d segments (%v)", res2.Compacted, res2.Outputs)
	}

	// Determinism: compacting the same log into a fresh directory yields
	// byte-identical datasets.
	outDir2 := filepath.Join(t.TempDir(), "out2")
	res3, err := CompactColdSegments(CompactConfig{WALDir: walDir, OutDir: outDir2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Outputs) != len(res.Outputs) {
		t.Fatalf("fresh pass wrote %d outputs, first wrote %d", len(res3.Outputs), len(res.Outputs))
	}
	for i, out := range res.Outputs {
		a, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(res3.Outputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s and %s differ", out, res3.Outputs[i])
		}
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
