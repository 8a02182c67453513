package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// TestWALDumpMatchesRecovery dumps a log over several segments that mixes
// batch frames, legacy kind-1 CSV rows, kind-2 node samples, a payload
// that is no frame and a row with a PTT ingest refuses. The dump must read
// back as a release dataset holding exactly the rows recovery applies, in
// log order, and no JSON line; the rows are the ones the log was written
// with, less those recovery skips.
func TestWALDumpMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	logged := func(kind byte, payload []byte) {
		t.Helper()
		if _, err := w.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	var want []extension.Record
	var corrupt, nodes uint64
	base := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		recs := make([]extension.Record, 1+i%7)
		for j := range recs {
			k := 7*i + j
			recs[j] = extension.Record{
				UserID: fmt.Sprintf("u%02d", k%13), City: []string{"London", "Seattle", "Perth"}[k%3],
				Country: "XX", ISP: []string{"starlink", "dsl"}[k%2], ASN: 14593,
				At: base.Add(time.Duration(k) * time.Second), Domain: fmt.Sprintf("site%02d.example", k%17),
				Rank: k, PTTMs: float64(k%997) + 0.125, PLTMs: 1.5 * float64(k),
			}
		}
		switch i % 4 {
		case 0:
			for _, r := range recs {
				var row bytes.Buffer
				cw := csv.NewWriter(&row)
				cw.Write(dataset.MarshalExtensionRow(r))
				cw.Flush()
				logged(collector.WALKindExtension, row.Bytes())
			}
			want = append(want, recs...)
			continue
		case 1:
			recs[0].PTTMs = -5
			corrupt++
			want = append(want, recs[1:]...)
		case 2:
			logged(2, []byte(`{"node":"Wiltshire","kind":"iperf","down_mbps":100}`+"\n"))
			nodes++
			want = append(want, recs...)
		case 3:
			logged(collector.WALKindExtensionBatch, []byte("not a batch frame"))
			corrupt++
			want = append(want, recs...)
		}
		logged(collector.WALKindExtensionBatch, dataset.MarshalBatch(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := wal.ListSegments(nil, dir); err != nil || len(segs) < 3 {
		t.Fatalf("log spans %d segments (%v); want several", len(segs), err)
	}

	var out bytes.Buffer
	if err := dumpWAL(&out, dir); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			t.Fatalf("dump holds a JSON line: %s", line)
		}
	}
	got, err := dataset.ReadExtensionCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("dump holds %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := dataset.MarshalExtensionRow(got[i]), dataset.MarshalExtensionRow(want[i])
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Fatalf("row %d: %v, want %v", i, g, w)
		}
	}

	// Recovery applies exactly those rows: it counts as many and what they
	// fold to, offered in dump order, is what it rebuilt.
	recovered, err := collector.OpenAggregator(collector.Config{
		Shards: 2, Registry: obs.NewRegistry(), WAL: collector.WALConfig{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rec := recovered.WALRecovery(); rec.ReplayedRecords != uint64(len(want)) ||
		rec.SkippedCorrupt != corrupt || rec.SkippedNodeRecords != nodes {
		t.Fatalf("recovery %+v; want %d replayed, %d corrupt and %d node samples", rec, len(want), corrupt, nodes)
	}
	folded, err := collector.OpenAggregator(collector.Config{Shards: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer folded.Close()
	v, err := dataset.ParseBatchView(dataset.MarshalBatch(got))
	if err != nil {
		t.Fatal(err)
	}
	folded.OfferBatchView(v, trace.SpanContext{})
	a, _ := json.Marshal(recovered.Snapshot().Groups)
	b, _ := json.Marshal(folded.Snapshot().Groups)
	if string(a) != string(b) {
		t.Fatalf("recovered groups differ from the dumped rows folded in order:\n%s\n%s", a, b)
	}
}
