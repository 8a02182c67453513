package collector

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
	"starlinkview/internal/weather"
)

// batchTestRecords draws a workload spread over enough (city, ISP) groups
// to hit every shard, with realistic repetition in the string columns.
func batchTestRecords(seed int64, n int) []extension.Record {
	r := rand.New(rand.NewSource(seed))
	cities := []string{"London", "Seattle", "Sydney", "Barcelona", "São Paulo", "Zürich"}
	isps := []string{"starlink", "terrestrial"}
	domains := []string{"example.com", "news.site", "video.tv", "shop.net", "検索.jp"}
	conds := weather.Conditions()
	base := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]extension.Record, n)
	for i := range recs {
		recs[i] = extension.Record{
			UserID:    fmt.Sprintf("u%03d", r.Intn(40)),
			City:      cities[r.Intn(len(cities))],
			Country:   "XX",
			ISP:       isps[r.Intn(len(isps))],
			ASN:       14593,
			At:        base.Add(time.Duration(i) * time.Second),
			Domain:    domains[r.Intn(len(domains))],
			Rank:      r.Intn(100000),
			Popular:   r.Intn(2) == 0,
			PTTMs:     50 + 400*r.Float64(),
			PLTMs:     200 + 3000*r.Float64(),
			Condition: conds[r.Intn(len(conds))],
			HasWx:     true,
			Benchmark: r.Intn(10) == 0,
			Google:    r.Intn(5) == 0,
		}
	}
	return recs
}

// foldSnapshot is the reference the ingest paths are held to: recs folded
// in order straight into one extAgg per (city, ISP) group — no wire, frame,
// queue or shard in between — and rendered as a snapshot. Records must hold
// what ingest applies, PTTs at the wires' milli precision. Each group keeps
// its domains in a plain string set of its own, so the reference does not
// move with the shards' domain sets.
func foldSnapshot(recs []extension.Record) *Snapshot {
	type group struct {
		seen    map[string]struct{}
		domains []string
		ptt     *stats.QuantileSketch
	}
	groups := make(map[extKey]*group)
	for _, r := range recs {
		k := extKey{r.City, r.ISP}
		g := groups[k]
		if g == nil {
			ptt, _ := stats.NewQuantileSketch(stats.DefaultSketchRelErr)
			g = &group{seen: make(map[string]struct{}), ptt: ptt}
			groups[k] = g
		}
		if _, ok := g.seen[r.Domain]; !ok {
			g.seen[r.Domain] = struct{}{}
			g.domains = append(g.domains, r.Domain)
		}
		g.ptt.Add(r.PTTMs)
	}
	n := uint64(len(recs))
	s := &Snapshot{relErr: stats.DefaultSketchRelErr, Accepted: n, Processed: n}
	for k, g := range groups {
		s.ext = append(s.ext, extSnap{extKey: k, domains: g.domains, ptt: g.ptt})
	}
	s.render()
	return s
}

// milliRecords returns recs as ingest applies them: through a batch frame,
// which keeps PTT and PLT at milli precision.
func milliRecords(t *testing.T, recs []extension.Record) []extension.Record {
	t.Helper()
	out, err := dataset.UnmarshalBatch(dataset.MarshalBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func comparableAggSnapshot(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	groups, err := json.Marshal(snap.Groups)
	if err != nil {
		t.Fatal(err)
	}
	table, err := json.Marshal(snap.CityTableJSON())
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Groups    json.RawMessage `json:"groups"`
		CityTable json.RawMessage `json:"city_table"`
		Accepted  uint64          `json:"accepted"`
		Processed uint64          `json:"processed"`
	}{groups, table, snap.Accepted, snap.Processed})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ingestVia runs the records through a fresh WAL-backed server and returns
// the snapshot taken once the client closed, plus the WAL dir.
func ingestVia(t *testing.T, recs []extension.Record) ([]byte, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := OpenServer(Config{
		Shards:   4,
		Registry: obs.NewRegistry(),
		WAL:      WALConfig{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.URL(), ClientConfig{BatchSize: 97, FlushEvery: 0})
	for _, r := range recs {
		if err := client.AddRecord(r); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Every POST was acked, and a snapshot covers every acked offer.
	snap := srv.Aggregator().Snapshot()
	if got := snap.Processed; got != uint64(len(recs)) {
		t.Fatalf("processed %d of %d", got, len(recs))
	}
	out := comparableAggSnapshot(t, snap)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	return out, dir
}

// TestBatchIngestMatchesPerRecord is the ingest-equivalence property: a
// record stream through /ingest/batch produces the aggregate snapshot of
// the records folded one at a time, byte for byte, and a WAL replay of the
// batch frames (checkpoint deleted, full replay) rebuilds that same state.
func TestBatchIngestMatchesPerRecord(t *testing.T) {
	recs := batchTestRecords(1, 5000)
	want := comparableAggSnapshot(t, foldSnapshot(milliRecords(t, recs)))
	batchSnap, batchDir := ingestVia(t, recs)
	if string(batchSnap) != string(want) {
		t.Fatalf("batch-wire snapshot differs from the per-record fold:\n batch %s\n fold  %s", batchSnap, want)
	}

	// Force a replay from the logged batch frames alone.
	if err := os.Remove(filepath.Join(batchDir, "checkpoint")); err != nil {
		t.Fatal(err)
	}
	agg, err := OpenAggregator(Config{
		Shards:   4,
		Registry: obs.NewRegistry(),
		WAL:      WALConfig{Dir: batchDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := agg.WALRecovery()
	if rec.ReplayedRecords != uint64(len(recs)) || rec.SkippedCorrupt != 0 {
		t.Fatalf("replay: %d records, %d corrupt; want %d, 0",
			rec.ReplayedRecords, rec.SkippedCorrupt, len(recs))
	}
	replayed := comparableAggSnapshot(t, agg.Snapshot())
	if string(replayed) != string(batchSnap) {
		t.Fatalf("replayed snapshot differs from live snapshot")
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchIngestShardCounts checks the batch path at several shard counts
// against the per-record path — the frame is one WAL append however many
// shards its records fan out to.
func TestBatchIngestShardCounts(t *testing.T) {
	recs := batchTestRecords(2, 1200)
	var want []byte
	for i, shards := range []int{1, 4, 8} {
		agg := NewAggregator(Config{Shards: shards, Registry: obs.NewRegistry()})
		frame := dataset.MarshalBatch(recs)
		decoded, err := dataset.UnmarshalBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		acc, drop := agg.OfferExtensionFrame(frame, decoded, trace.SpanContext{})
		if acc != len(recs) || drop != 0 {
			t.Fatalf("shards=%d: accepted %d dropped %d", shards, acc, drop)
		}
		if err := agg.Close(); err != nil {
			t.Fatal(err)
		}
		got := comparableAggSnapshot(t, agg.Snapshot())
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("shards=%d snapshot differs from shards=1", shards)
		}
	}
}

// postFrames POSTs a /ingest/batch body and returns the decoded 200 reply.
func postFrames(t *testing.T, srv *Server, body []byte) IngestReply {
	t.Helper()
	resp, err := http.Post(srv.URL()+PathIngestBatch, BatchContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, reply %+v", resp.StatusCode, reply)
	}
	return reply
}

// crashReplaySnapshot opens an aggregator on a copy of the WAL directory —
// what a power loss right now would leave — and returns the batch frames the
// log holds, decoded in order, and the recovered snapshot.
func crashReplaySnapshot(t *testing.T, dir string) (frames [][]extension.Record, snapshot []byte) {
	t.Helper()
	cp := copyWALDir(t, dir)
	err := wal.ReplayDir(nil, cp, 0, func(r wal.Rec) error {
		if r.Kind != WALKindExtensionBatch {
			t.Fatalf("log holds a kind-%d record, want only batch frames", r.Kind)
		}
		recs, err := DecodeWALExtensionBatch(r.Payload)
		frames = append(frames, recs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := OpenAggregator(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: cp}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := agg.WALRecovery(); rec.SkippedCorrupt != 0 {
		t.Fatalf("replay skipped %d corrupt frames", rec.SkippedCorrupt)
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	return frames, comparableAggSnapshot(t, agg.Snapshot())
}

// sameRecords compares decoded records field for field.
func sameRecords(got, want []extension.Record) bool {
	return len(got) == len(want) && string(mustCSV(got)) == string(mustCSV(want))
}

// mustCSV renders recs as headerless dataset CSV rows.
func mustCSV(recs []extension.Record) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, r := range recs {
		if err := cw.Write(dataset.MarshalExtensionRow(r)); err != nil {
			panic(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestOversizeFrameSplitsAndReplays sends one frame larger than the WAL's
// payload bound end to end: it must be accepted and acked, logged as in-bound
// pieces that hold its rows once each in order, and a crash right after the
// ack must replay to the snapshot the live server reached.
func TestOversizeFrameSplitsAndReplays(t *testing.T) {
	recs := batchTestRecords(4, 10000)
	pad := strings.Repeat("x", 1000)
	for i := range recs {
		recs[i].Domain = fmt.Sprintf("%s-%05d.example", pad, i)
	}
	frame := dataset.MarshalBatch(recs)
	if len(frame) <= wal.MaxPayload || len(frame) > dataset.MaxBatchBody {
		t.Fatalf("test frame is %d bytes; want between the WAL payload bound and the wire bound", len(frame))
	}
	want, err := dataset.UnmarshalBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, err := OpenServer(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if reply := postFrames(t, srv, frame); reply.Accepted != len(recs) || reply.Dropped != 0 {
		t.Fatalf("oversize frame: reply %+v, want %d accepted", reply, len(recs))
	}
	pieces, replayed := crashReplaySnapshot(t, dir)
	if len(pieces) < 2 {
		t.Fatalf("a %d-byte frame was logged as %d WAL record(s)", len(frame), len(pieces))
	}
	var logged []extension.Record
	for _, p := range pieces {
		logged = append(logged, p...)
	}
	if !sameRecords(logged, want) {
		t.Fatalf("the %d logged pieces do not hold the frame's %d rows once each, in order", len(pieces), len(want))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if live := comparableAggSnapshot(t, srv.Aggregator().Snapshot()); string(replayed) != string(live) {
		t.Fatalf("replayed snapshot differs from the live one:\n live     %s\n replayed %s", live, replayed)
	}
}

// TestBatchHandlerSplitsByOwner drives a multi-frame request with rows for
// three owners through the batch handler behind a forwarder: every row is
// either kept or forwarded, each peer gets one POST holding exactly its rows
// in their original order, and this instance logs — and so replays — only
// the rows it keeps.
func TestBatchHandlerSplitsByOwner(t *testing.T) {
	fwd := &ringThirds{posts: make(map[string][][]byte)}
	dir := t.TempDir()
	srv, err := OpenServer(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetForwarder(fwd)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Three frames: mixed owners, one that is all-local (the untouched fast
	// path) and one with no local row at all.
	mixed := batchTestRecords(5, 700)
	var allLocal, allForeign []extension.Record
	for _, r := range batchTestRecords(6, 900) {
		if fwd.OwnerExtension(r.City, r.ISP) == "" {
			allLocal = append(allLocal, r)
		} else {
			allForeign = append(allForeign, r)
		}
	}
	var body []byte
	wantByOwner := make(map[string][]extension.Record)
	total := 0
	for _, recs := range [][]extension.Record{mixed, allLocal, allForeign} {
		frame := dataset.MarshalBatch(recs)
		body = append(body, frame...)
		decoded, err := dataset.UnmarshalBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range decoded {
			owner := fwd.OwnerExtension(r.City, r.ISP)
			wantByOwner[owner] = append(wantByOwner[owner], r)
		}
		total += len(recs)
	}
	if len(allLocal) == 0 || len(wantByOwner["peer-a"]) == 0 || len(wantByOwner["peer-b"]) == 0 {
		t.Fatal("test records do not cover all three owners")
	}

	reply := postFrames(t, srv, body)
	if reply.Accepted != len(wantByOwner[""]) || reply.Forwarded != total-reply.Accepted || reply.Dropped != 0 {
		t.Fatalf("reply %+v; want %d accepted and %d forwarded", reply, len(wantByOwner[""]), total-len(wantByOwner[""]))
	}
	for _, peer := range []string{"peer-a", "peer-b"} {
		if len(fwd.posts[peer]) != 1 {
			t.Fatalf("%s got %d POSTs for one request, want 1", peer, len(fwd.posts[peer]))
		}
		var got []extension.Record
		for rd := bytes.NewReader(fwd.posts[peer][0]); ; {
			recs, err := dataset.ReadBatch(rd)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s body: %v", peer, err)
			}
			got = append(got, recs...)
		}
		if !sameRecords(got, wantByOwner[peer]) {
			t.Fatalf("%s was forwarded %d rows; want its %d rows in their original order", peer, len(got), len(wantByOwner[peer]))
		}
	}

	// What this instance logged is what it kept: two frames (the all-foreign
	// one leaves nothing to log), the local rows only.
	pieces, replayed := crashReplaySnapshot(t, dir)
	var logged []extension.Record
	for _, p := range pieces {
		logged = append(logged, p...)
	}
	if len(pieces) != 2 || !sameRecords(logged, wantByOwner[""]) {
		t.Fatalf("log holds %d frames with %d rows; want 2 frames with the %d local rows", len(pieces), len(logged), len(wantByOwner[""]))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := comparableAggSnapshot(t, srv.Aggregator().Snapshot())
	if want := comparableAggSnapshot(t, foldSnapshot(wantByOwner[""])); string(live) != string(want) {
		t.Fatalf("live snapshot differs from a fold of only the local rows:\n live %s\n want %s", live, want)
	}
	if string(replayed) != string(live) {
		t.Fatalf("replayed snapshot differs from the live one")
	}
}

// FuzzReplayBatchFrame drives arbitrary bytes through the full durable
// path: the payload is appended to a real WAL as a batch frame, and startup
// recovery must never panic — a decodable frame replays every record whose
// PTT ingest accepts and counts the others as corrupt, anything else is
// skipped and counted, exactly once.
func FuzzReplayBatchFrame(f *testing.F) {
	for _, n := range []int{0, 1, 50} {
		f.Add(dataset.MarshalBatch(batchTestRecords(3, n)))
	}
	bad := batchTestRecords(3, 8)
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
		if _, err := w.Append(WALKindExtensionBatch, data); err != nil {
			w.Close()
			t.Skipf("append rejected: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		agg, err := OpenAggregator(Config{
			Shards:   2,
			Registry: obs.NewRegistry(),
			WAL:      WALConfig{Dir: dir},
		})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		rec := agg.WALRecovery()
		recs, derr := dataset.UnmarshalBatch(data)
		if derr == nil {
			var bad uint64
			for _, r := range recs {
				if !validPTT(r.PTTMs) {
					bad++
				}
			}
			if rec.ReplayedRecords != uint64(len(recs))-bad || rec.SkippedCorrupt != bad {
				t.Fatalf("valid frame of %d records, %d with a PTT ingest refuses: replayed %d, corrupt %d",
					len(recs), bad, rec.ReplayedRecords, rec.SkippedCorrupt)
			}
		} else if rec.ReplayedRecords != 0 || rec.SkippedCorrupt != 1 {
			t.Fatalf("invalid frame: replayed %d, corrupt %d", rec.ReplayedRecords, rec.SkippedCorrupt)
		}
		if err := agg.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchHeaderClaimAllocatesLittle posts /ingest/batch requests whose
// one frame header claims a 64 MiB body with nothing, or 100 KiB, behind
// it. Each is refused as a torn frame having allocated under 1 MiB, client
// included: the read grows its buffer as body bytes arrive, not to the
// claim.
func TestBatchHeaderClaimAllocatesLittle(t *testing.T) {
	srv, err := OpenServer(Config{Shards: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	hdr := binary.LittleEndian.AppendUint32([]byte(dataset.BatchMagic), 64<<20)
	for _, sent := range []int{0, 100 << 10} {
		body := append(hdr[:len(hdr):len(hdr)], make([]byte, sent)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(srv.URL()+PathIngestBatch, BatchContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("header and %d body bytes: status %d, want 400", sent, resp.StatusCode)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("header and %d body bytes: the request allocated %d B", sent, b)
		}
	}
}
