package collector

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// offerFrames sends recs through the batch path in frames of up to 1024;
// every later read covers them.
func offerFrames(t *testing.T, a *Aggregator, recs []extension.Record) {
	t.Helper()
	for len(recs) > 0 {
		n := min(len(recs), 1024)
		v, err := a.views.Parse(dataset.MarshalBatch(recs[:n]))
		if err != nil {
			t.Fatal(err)
		}
		if acc, _ := a.OfferBatchView(v, trace.SpanContext{}); acc != n {
			t.Fatalf("frame accepted %d of %d", acc, n)
		}
		recs = recs[n:]
	}
}

func contextWithTimeout(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

var sinkFloat float64

// TestSnapshotAllocBudget holds the read path to a fixed number of
// allocations per group: Snapshot plus CityTableJSON may not allocate more
// with 2000 domains per group than with one, nor with a thousand sketch
// buckets per group than with one. Cities with several non-Starlink ISPs
// keep the union-and-merge branch in the measurement. Run without the race
// detector; `make check` runs it explicitly.
func TestSnapshotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc measurement is not short")
	}
	const cities, perGroup, budget = 30, 2000, 6.0
	isps := []string{"starlink", "terrestrial", "dsl"}
	for _, domains := range []int{1, perGroup} {
		for _, wide := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(domains)))
			var recs []extension.Record
			for c := 0; c < cities; c++ {
				for _, isp := range isps {
					for i := 0; i < perGroup; i++ {
						ptt := 50.0 // one bucket
						if wide {
							ptt = math.Exp(r.Float64()*20 - 5) // about a thousand
						}
						recs = append(recs, extension.Record{
							City: fmt.Sprintf("city%02d", c), ISP: isp,
							Domain: fmt.Sprintf("d%04d", i%domains), PTTMs: ptt,
						})
					}
				}
			}
			a := NewAggregator(Config{Shards: 4, Registry: obs.NewRegistry()})
			offerFrames(t, a, recs)
			groups := float64(cities * len(isps))
			allocs := testing.AllocsPerRun(5, func() { a.Snapshot().CityTableJSON() })
			t.Logf("%d domains/group, wide=%v: %.0f allocs, %.2f per group", domains, wide, allocs, allocs/groups)
			if allocs > budget*groups {
				t.Errorf("%d domains/group, wide=%v: %.0f allocs for %v groups; budget is %v per group",
					domains, wide, allocs, groups, budget)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	sk, _ := stats.NewQuantileSketch(stats.DefaultSketchRelErr)
	for i := 0; i < 10000; i++ {
		sk.Add(math.Exp(float64(i%2000) / 100))
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkFloat = sk.Quantile(0.37) }); allocs != 0 {
		t.Fatalf("Quantile allocates %.1f times per call", allocs)
	}
}

// TestReadPathRacesWriters runs Snapshot, ExportState, the city table and
// Checkpoint while two writers add new domains to the same groups, so the
// domain lists snapshots share with the shards grow and move under them.
// Under -race it guards the shared-prefix argument; without, it still checks
// that a snapshot never changes after it is taken and that nothing is lost.
func TestReadPathRacesWriters(t *testing.T) {
	const perWriter = 1500
	a, err := OpenAggregator(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	keys := []extKey{{"London", "starlink"}, {"London", "terrestrial"}, {"Lima", "dsl"}}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				k := keys[i%len(keys)]
				rec := extension.Record{City: k.City, ISP: k.ISP, Domain: fmt.Sprintf("w%d-%d", w, i), PTTMs: float64(1 + i%300)}
				if offerRecords(a, rec) != 1 {
					t.Error("offer rejected")
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()

	exported := func(s *Snapshot) []byte {
		st, err := s.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var first *Snapshot
	var firstState []byte
	for reads := 0; ; reads++ {
		snap := a.Snapshot()
		state := exported(snap)
		snap.CityTableJSON()
		if first == nil {
			first, firstState = snap, state
		}
		if err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported(first), firstState) {
		t.Fatal("a snapshot changed after it was taken")
	}
	final := a.Snapshot()
	for _, g := range final.Groups {
		// Each writer sends every third record to each group, all with
		// distinct domains.
		if want := 2 * perWriter / len(keys); g.Domains != want || g.Count != uint64(want) {
			t.Errorf("%s/%s: %d domains over %d records, want %d of each", g.City, g.ISP, g.Domains, g.Count, want)
		}
	}
}

// TestBadPTTRejected posts PTTs outside [0, maxPTTMs] on each wire — NaN,
// the infinities, a negative, and two near MaxFloat64 whose sum would
// overflow — and expects a 400 that leaves no trace: nothing accepted,
// nothing in the WAL, and /snapshot still a decodable 200. The node-sample
// path is gone: a POST to /ingest/node finds no handler.
func TestBadPTTRejected(t *testing.T) {
	dir := t.TempDir()
	srv, err := OpenServer(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	recs := batchTestRecords(9, 8)
	post := func(path, contentType string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL()+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(PathIngestBatch, BatchContentType, dataset.MarshalBatch(recs)); got != http.StatusOK {
		t.Fatalf("finite frame: status %d", got)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1, maxPTTMs * 1.001, 1e308} {
		withBad := append([]extension.Record(nil), recs...)
		withBad[3].PTTMs, withBad[4].PTTMs = bad, bad
		if got := post(PathIngestBatch, BatchContentType, dataset.MarshalBatch(withBad)); got != http.StatusBadRequest {
			t.Errorf("frame with PTT %v: status %d, want 400", bad, got)
		}
		if got := post(PathIngestExtension, ExtensionContentType, mustCSV(withBad[3:5])); got != http.StatusBadRequest {
			t.Errorf("CSV rows with PTT %v: status %d, want 400", bad, got)
		}
	}
	sample := `{"node":"Wiltshire","kind":"iperf","at":"2022-04-11T09:00:00Z","down_mbps":1e308}` + "\n"
	if got := post("/ingest/node", "application/x-ndjson", []byte(sample)); got != http.StatusNotFound {
		t.Errorf("node sample: status %d, want 404", got)
	}
	accepted := uint64(len(recs))

	var reply struct {
		Snapshot struct {
			Accepted uint64 `json:"accepted"`
		} `json:"snapshot"`
		CityTable []CityJSON `json:"city_table"`
	}
	if got := getJSON(t, srv.URL()+PathSnapshot, &reply); got != http.StatusOK {
		t.Fatalf("snapshot status %d", got)
	}
	if reply.Snapshot.Accepted != accepted || len(reply.CityTable) == 0 {
		t.Fatalf("snapshot after rejections: accepted %d, %d city rows; want %d accepted",
			reply.Snapshot.Accepted, len(reply.CityTable), accepted)
	}
	if err := srv.Shutdown(contextWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAggregator(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if rec := a.WALRecovery(); rec.RestoredRecords+rec.ReplayedRecords != accepted || rec.SkippedCorrupt != 0 {
		t.Fatalf("restart rebuilt %+v; want the %d accepted records and nothing skipped", rec, accepted)
	}
}

// TestRecoverySkipsBadPTT replays a log written before ingest bounded PTTs —
// one infinite in a CSV row; a NaN, a -Inf and a 1e308 inside a batch frame
// — and expects recovery to keep every other record, count the four as
// corrupt, and serve a /snapshot that decodes.
func TestRecoverySkipsBadPTT(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := batchTestRecords(10, 8)
	row := recs[0]
	row.PTTMs = math.Inf(1)
	if _, err := w.Append(WALKindExtension, legacyCSVPayload(t, row)); err != nil {
		t.Fatal(err)
	}
	recs[2].PTTMs, recs[6].PTTMs, recs[7].PTTMs = math.NaN(), math.Inf(-1), 1e308
	if _, err := w.Append(WALKindExtensionBatch, dataset.MarshalBatch(recs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := OpenServer(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	if rec := srv.Aggregator().WALRecovery(); rec.ReplayedRecords != 5 || rec.SkippedCorrupt != 4 {
		t.Fatalf("replayed %d, skipped %d; want 5 and 4", rec.ReplayedRecords, rec.SkippedCorrupt)
	}
	var reply SnapshotReply
	if got := getJSON(t, srv.URL()+PathSnapshot, &reply); got != http.StatusOK {
		t.Fatalf("snapshot status %d", got)
	}
}

// TestOpenAggregatorRejectsBadRelErr: an error no sketch accepts, such as
// one too fine for the wire format's int32 keys, fails the open instead of
// the first record.
func TestOpenAggregatorRejectsBadRelErr(t *testing.T) {
	for _, e := range []float64{1, 1e-9} {
		if a, err := OpenAggregator(Config{SketchRelErr: e, Registry: obs.NewRegistry()}); err == nil {
			a.Close()
			t.Errorf("SketchRelErr %v accepted", e)
		}
	}
}

// TestWriteJSONEncodeFailureIs500 hands WriteJSON a value JSON cannot carry
// and expects a 500 with an error body rather than a 200 with an empty one.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	w := httptest.NewRecorder()
	WriteJSON(w, http.StatusOK, struct{ Mean float64 }{math.NaN()})
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(w.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if w.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "encode") {
		t.Fatalf("status %d, body %+v; want 500 naming the encode failure", w.Code, body)
	}
}

// mapStoreInfBlob is the sketch blob the map-backed store wrote for the PTTs
// {+Inf, 0.5, 10} at the default error: +Inf went under the lowest key and
// reached the wire as key 0, ahead of the negative key of 0.5.
func mapStoreInfBlob() []byte {
	logGamma := math.Log((1 + stats.DefaultSketchRelErr) / (1 - stats.DefaultSketchRelErr))
	key := func(v float64) int32 { return int32(math.Ceil(math.Log(v) / logGamma)) }
	buf := []byte{1} // wire version
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(stats.DefaultSketchRelErr))
	buf = binary.LittleEndian.AppendUint32(buf, 1024) // bucket cap
	buf = binary.LittleEndian.AppendUint64(buf, 0)    // values <= 0
	buf = binary.LittleEndian.AppendUint64(buf, 3)    // count
	// sum, min, max
	for _, f := range []float64{math.Inf(1), 0.5, math.Inf(1)} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.LittleEndian.AppendUint32(buf, 3)
	for _, k := range []int32{0, key(0.5), key(10)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
		buf = binary.LittleEndian.AppendUint64(buf, 1)
	}
	return buf
}

// TestRestoreMapStoreInfinity restarts from a checkpoint that holds a group
// written by the map-backed sketch store with a +Inf PTT, and merges a peer
// state carrying the same bytes: both must load, keep every sample, and
// render a /snapshot that decodes.
func TestRestoreMapStoreInfinity(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAggregator(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	offerFrames(t, a, batchTestRecords(11, 8))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	lsn, payload, err := wal.LoadCheckpoint(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	var cf ckptFile
	if err := json.Unmarshal(payload, &cf); err != nil {
		t.Fatal(err)
	}
	legacy := GroupState{City: "Lima", ISP: "dsl", Domains: []string{"a.example"}, PTT: mapStoreInfBlob()}
	cf.Ext = append(cf.Ext, legacy)
	if payload, err = json.Marshal(cf); err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveCheckpoint(nil, dir, lsn, payload); err != nil {
		t.Fatal(err)
	}

	srv, err := OpenServer(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatalf("restart from the checkpoint: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	var reply SnapshotReply
	if got := getJSON(t, srv.URL()+PathSnapshot, &reply); got != http.StatusOK {
		t.Fatalf("snapshot status %d", got)
	}
	var found bool
	for _, g := range reply.Snapshot.Groups {
		if g.City == legacy.City && g.ISP == legacy.ISP {
			found = g.Count == 3 && g.MeanPTTMs == math.MaxFloat64
		}
	}
	if !found {
		t.Fatalf("restored groups %+v; want %s/%s with 3 samples and its infinite mean rendered as MaxFloat64",
			reply.Snapshot.Groups, legacy.City, legacy.ISP)
	}

	peer := MergeState{RelErr: stats.DefaultSketchRelErr, Accepted: 3, Processed: 3,
		Groups: []GroupState{{City: legacy.City, ISP: legacy.ISP, Domains: legacy.Domains, PTT: legacy.PTT}}}
	merged, err := MergeStates(peer)
	if err != nil {
		t.Fatalf("merge a peer state holding the blob: %v", err)
	}
	if _, err := json.Marshal(merged.CityTableJSON()); err != nil {
		t.Fatal(err)
	}
}
