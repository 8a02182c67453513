package collector

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"starlinkview/internal/dataset"
	"starlinkview/internal/obs"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// recoveryLog is a log writeRecoveryLog wrote: its directory, the browsing
// records replay should apply and the corrupt rows it should count, and the
// node samples the checkpoint holds and the tail logs.
type recoveryLog struct {
	dir                  string
	replayed, skipped    uint64
	ckptNodes, tailNodes uint64
}

// writeRecoveryLog writes a seeded log straight through wal.Writer: batch
// frames from one row to 4 096, legacy kind-1 CSV rows between them, a
// checkpoint partway through, and after it a frame with out-of-range PTT
// rows and one payload that does not decode. The checkpoint holds what a
// reference aggregator built from the records logged before it. Node
// samples are drawn between the rows either way, so the browsing records do
// not depend on withNodes; only withNodes logs them, as kind-2 records, and
// checkpoints those logged before the checkpoint as node groups, the way
// earlier builds did.
func writeRecoveryLog(t *testing.T, withNodes bool) recoveryLog {
	t.Helper()
	r := rand.New(rand.NewSource(30))
	lg := recoveryLog{dir: t.TempDir()}
	w, err := wal.Open(wal.Config{Dir: lg.dir, SegmentBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewAggregator(Config{Shards: 4, Registry: obs.NewRegistry()})
	defer ref.Close()
	var ckptSamples []dataset.NodeSample
	logged := func(kind byte, payload []byte) {
		t.Helper()
		if _, err := w.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	// section logs one frame per size, each followed by a few CSV rows and
	// node samples; before the checkpoint the reference takes the same
	// records.
	section := func(sizes []int, toRef bool) {
		for _, n := range sizes {
			recs := goldenRecords(r, n)
			logged(WALKindExtensionBatch, dataset.MarshalBatch(recs))
			lg.replayed += uint64(n)
			for _, rec := range goldenRecords(r, r.Intn(4)) {
				logged(WALKindExtension, legacyCSVPayload(t, rec))
				lg.replayed++
				recs = append(recs, rec)
			}
			samples := goldenNodeSamples(r, r.Intn(3))
			if !withNodes {
				samples = nil
			}
			for _, s := range samples {
				payload, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				logged(walKindNode, append(payload, '\n'))
				lg.tailNodes++
			}
			if !toRef {
				continue
			}
			if acc, _ := ref.OfferExtensionFrame(nil, recs, trace.SpanContext{}); acc != len(recs) {
				t.Fatalf("reference accepted %d of %d", acc, len(recs))
			}
			ckptSamples = append(ckptSamples, samples...)
		}
	}
	section([]int{1, 4096, 2, 17, 333, 1, 1024, 64}, true)

	st, err := ref.Snapshot().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := json.Marshal(struct {
		ckptFile
		Nodes []legacyNodeGroup `json:"nodes,omitempty"`
	}{ckptFile{RelErr: ref.cfg.SketchRelErr, Ext: st.Groups}, legacyNodeGroups(t, ckptSamples)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveCheckpoint(nil, lg.dir, w.AppendedLSN(), ckpt); err != nil {
		t.Fatal(err)
	}
	lg.replayed, lg.ckptNodes, lg.tailNodes = 0, lg.tailNodes, 0

	section([]int{7, 2500, 1, 4096, 3, 900}, false)
	bad := goldenRecords(r, 40)
	for i, v := range []float64{-1, math.NaN(), 2 * maxPTTMs, math.Inf(1), math.Inf(-1)} {
		bad[3+7*i].PTTMs = v
	}
	logged(WALKindExtensionBatch, dataset.MarshalBatch(bad))
	lg.replayed, lg.skipped = lg.replayed+35, lg.skipped+5
	logged(WALKindExtensionBatch, []byte("not a batch frame"))
	lg.skipped++
	section([]int{128, 1}, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return lg
}

// legacyNodeGroup is one (node, kind) group of samples as the checkpoints
// of earlier builds held it.
type legacyNodeGroup struct {
	Node    string  `json:"node"`
	Kind    string  `json:"kind"`
	Count   uint64  `json:"count"`
	Down    []byte  `json:"down"`
	UpSum   float64 `json:"up_sum"`
	PingSum float64 `json:"ping_sum"`
	LossSum float64 `json:"loss_sum"`
}

// legacyNodeGroups folds samples into the node groups such a checkpoint held.
func legacyNodeGroups(t *testing.T, samples []dataset.NodeSample) []legacyNodeGroup {
	t.Helper()
	var out []legacyNodeGroup
	for len(samples) > 0 {
		g := legacyNodeGroup{Node: samples[0].Node, Kind: samples[0].Kind}
		down, _ := stats.NewQuantileSketch(stats.DefaultSketchRelErr)
		rest := samples[:0:0]
		for _, s := range samples {
			if s.Node != g.Node || s.Kind != g.Kind {
				rest = append(rest, s)
				continue
			}
			g.Count++
			down.Add(s.DownMbps)
			g.UpSum += s.UpMbps
			g.PingSum += s.PingMs
			g.LossSum += s.LossPct
		}
		var err error
		if g.Down, err = down.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		out, samples = append(out, g), rest
	}
	return out
}

// recoveryDigest hashes what recovery rebuilt in a: the snapshotDigest (the
// /snapshot reply and the ExportState JSON), the WALRecovery summary, and
// each shard's accepted, processed and group counters.
func recoveryDigest(t *testing.T, a *Aggregator) []byte {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(snapshotDigest(t, a)))
	rec, err := json.Marshal(a.WALRecovery())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(rec)
	for _, sh := range a.Stats().Shards {
		fmt.Fprintf(h, "|%d:%d/%d/%d", sh.Shard, sh.Accepted, sh.Processed, sh.Groups)
	}
	return h.Sum(nil)
}

// TestRecoverySkipsNodeSamples recovers the log writeRecoveryLog leaves
// with node samples, as an earlier build wrote it (node groups in the
// checkpoint, kind-2 records in the tail), at 1, 3, 4 and 8 shards. Recovery
// must count every sample as skipped, apply none, and rebuild exactly what it
// rebuilds from the same log without them.
func TestRecoverySkipsNodeSamples(t *testing.T) {
	mixed, plain := writeRecoveryLog(t, true), writeRecoveryLog(t, false)
	if mixed.ckptNodes == 0 || mixed.tailNodes == 0 {
		t.Fatalf("log holds %d checkpointed and %d logged node samples; want both", mixed.ckptNodes, mixed.tailNodes)
	}
	for _, shards := range []int{1, 3, 4, 8} {
		open := func(dir string) *Aggregator {
			a, err := OpenAggregator(Config{Shards: shards, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: copyWALDir(t, dir)}})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		got, want := open(mixed.dir), open(plain.dir)
		gr, wr := got.WALRecovery(), want.WALRecovery()
		if gr.SkippedNodeRecords != mixed.ckptNodes+mixed.tailNodes || wr.SkippedNodeRecords != 0 {
			t.Fatalf("shards=%d: %d and %d node samples skipped, want %d and 0",
				shards, gr.SkippedNodeRecords, wr.SkippedNodeRecords, mixed.ckptNodes+mixed.tailNodes)
		}
		if gr.RestoredRecords != wr.RestoredRecords || gr.ReplayedRecords != wr.ReplayedRecords || gr.SkippedCorrupt != wr.SkippedCorrupt {
			t.Fatalf("shards=%d: recovery %+v, want the records of %+v", shards, gr, wr)
		}
		if g, w := snapshotDigest(t, got), snapshotDigest(t, want); g != w {
			t.Errorf("shards=%d: snapshot digest %s, want %s", shards, g, w)
		}
		for i, sh := range got.Stats().Shards {
			if w := want.Stats().Shards[i]; sh.Accepted != w.Accepted || sh.Processed != w.Processed || sh.Groups != w.Groups {
				t.Errorf("shards=%d: shard %d holds %+v, want %+v", shards, i, sh, w)
			}
		}
		for _, a := range []*Aggregator{got, want} {
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// goldenRecoveryBrowsingDigest was pinned while the collector still took
// volunteer-node samples: it is what recovery rebuilds from the log
// writeRecoveryLog leaves without them (the same browsing records and kind-1
// rows, no node sample logged), at several shard counts, so it must not
// move.
const goldenRecoveryBrowsingDigest = "1eaa2f3f5ca6d1f394fff6c6bc696be25096792f36f086d73192de36c8ed2f6f"

// TestRecoveryGoldenDigestBrowsing recovers one seeded log of browsing
// records at 1, 3, 4 and 8 shards and pins what each rebuilt.
func TestRecoveryGoldenDigestBrowsing(t *testing.T) {
	lg := writeRecoveryLog(t, false)
	h := sha256.New()
	for _, shards := range []int{1, 3, 4, 8} {
		a, err := OpenAggregator(Config{Shards: shards, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: copyWALDir(t, lg.dir)}})
		if err != nil {
			t.Fatal(err)
		}
		rec := a.WALRecovery()
		if rec.CheckpointLSN == 0 || rec.RestoredRecords == 0 || rec.ReplayedRecords != lg.replayed || rec.SkippedCorrupt != lg.skipped {
			t.Fatalf("shards=%d: recovery %+v; want a checkpoint, %d replayed and %d skipped", shards, rec, lg.replayed, lg.skipped)
		}
		h.Write(recoveryDigest(t, a))
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRecoveryBrowsingDigest {
		t.Fatalf("recovery digest %s, want %s", got, goldenRecoveryBrowsingDigest)
	}
}

// TestQueueItemSize pins the queue slot: every slot of every shard's channel
// holds an item, so it must stay small. It was 184 B while it carried a node
// sample by value and 96 B while it carried one by pointer; a batch slice
// needs 88 B on 64-bit platforms.
func TestQueueItemSize(t *testing.T) {
	if size := unsafe.Sizeof(item{}); size > 88 {
		t.Fatalf("a queue item is %d B; budget is 88", size)
	}
}

// writeFrameLog writes frames batch frames of perFrame records each straight
// through wal.Writer, rotating segments at segBytes (0 for the default).
func writeFrameLog(t *testing.T, frames, perFrame int, segBytes int64) string {
	t.Helper()
	r := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if _, err := w.Append(WALKindExtensionBatch, dataset.MarshalBatch(goldenRecords(r, perFrame))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayBoundsLiveViews replays 200 frames into shards slowed down
// enough that an unbounded reader would queue the whole log. A view handed
// to the shards holds a window token until its last shard has put it back
// in the pool, and a view the reader filled stays in the replay ring,
// parsing or waiting for its turn, until the sequencer hands it over. So at
// no moment may more than replayWindow views be with the shards, nor more
// than the ring's slots (one per parse worker, GOMAXPROCS of them, plus
// one) be in parse: no more than replayWindow plus the slots are live. The
// pipeline must actually have overlapped: two views with the shards at
// once, and two in the ring.
func TestReplayBoundsLiveViews(t *testing.T) {
	const frames, perFrame = 200, 16
	dir := writeFrameLog(t, frames, perFrame, 0)
	a, err := OpenAggregator(Config{
		Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir},
		applyDelay: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if rec := a.WALRecovery(); rec.ReplayedRecords != frames*perFrame {
		t.Fatalf("replayed %d records, want %d", rec.ReplayedRecords, frames*perFrame)
	}
	if got := sumProcessed(a); got != frames*perFrame {
		t.Fatalf("ready with %d of %d records applied", got, frames*perFrame)
	}
	if took := a.met.recSeconds.Value(); took <= 0 {
		t.Fatalf("collector_wal_recovery_seconds is %v after a replay", took)
	}
	if a.window != nil {
		t.Fatal("the replay window is still open after ready")
	}
	if peak := a.windowPeak; peak > replayWindow || peak < 2 {
		t.Fatalf("at most %d views were with the shards during replay; want 2..%d", peak, replayWindow)
	}
	if peak, slots := a.ringPeak, runtime.GOMAXPROCS(0)+1; peak > slots || peak < 2 {
		t.Fatalf("at most %d views were in parse during replay; want 2..%d", peak, slots)
	}
}

// openFailFS fails the second Open of one file: wal.Open's scan makes the
// first, replay the second.
type openFailFS struct {
	wal.FS
	name  string
	mu    sync.Mutex
	opens int
}

var errOpenFault = errors.New("injected segment open failure")

func (fs *openFailFS) Open(name string) (io.ReadCloser, error) {
	if filepath.Base(name) == fs.name {
		fs.mu.Lock()
		fs.opens++
		n := fs.opens
		fs.mu.Unlock()
		if n == 2 {
			return nil, errOpenFault
		}
	}
	return fs.FS.Open(name)
}

// TestReplayFailureStopsShards fails the read of the last segment while
// frames from the earlier ones are still queued on slowed shards: the open
// must return the error, stop every shard goroutine and close the log, so
// the directory opens cleanly again afterwards.
func TestReplayFailureStopsShards(t *testing.T) {
	const frames, perFrame = 60, 64
	dir := writeFrameLog(t, frames, perFrame, 32<<10)
	segs, err := wal.ListSegments(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("log has %d segments; want several", len(segs))
	}
	fs := &openFailFS{FS: wal.OSFS{}, name: segs[len(segs)-1].Name}
	baseline := runtime.NumGoroutine()
	_, err = OpenAggregator(Config{
		Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir, FS: fs},
		applyDelay: time.Microsecond,
	})
	if !errors.Is(err, errOpenFault) {
		t.Fatalf("open returned %v, want the injected fault", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the open:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	a, err := OpenAggregator(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if rec := a.WALRecovery(); rec.ReplayedRecords != frames*perFrame {
		t.Fatalf("reopen replayed %d records, want %d", rec.ReplayedRecords, frames*perFrame)
	}
}

// mixedLog is a log writeMixedLog wrote: its directory and what recovery
// should count from it.
type mixedLog struct {
	dir                      string
	replayed, corrupt, nodes uint64
}

// writeMixedLog writes a seeded log with no checkpoint over many small
// segments: batch frames of 1 to 1 500 rows in a mixed order, so a small
// frame often follows a large one, with legacy kind-1 rows and kind-2 node
// samples between them, two payloads that fail the parse under a valid WAL
// CRC (one not a frame at all, one a frame whose own CRC is broken), and two
// frames with out-of-range PTT rows.
func writeMixedLog(t *testing.T) mixedLog {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	lg := mixedLog{dir: t.TempDir()}
	w, err := wal.Open(wal.Config{Dir: lg.dir, SegmentBytes: 24 << 10})
	if err != nil {
		t.Fatal(err)
	}
	logged := func(kind byte, payload []byte) {
		t.Helper()
		if _, err := w.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		n := 1 + r.Intn(24)
		if i%3 == 0 {
			n = 200 + r.Intn(1300)
		}
		recs := goldenRecords(r, n)
		switch i {
		case 11:
			logged(WALKindExtensionBatch, []byte("not a batch frame"))
			lg.corrupt++
		case 23:
			frame := dataset.MarshalBatch(recs)
			frame[len(frame)-1] ^= 0xff
			logged(WALKindExtensionBatch, frame)
			lg.corrupt++
			continue
		case 17, 30:
			for _, j := range []int{0, n / 2, n - 1} {
				recs[j].PTTMs = []float64{-2, math.NaN(), 3 * maxPTTMs}[r.Intn(3)]
			}
			bad := uint64(1)
			if n > 2 {
				bad = 3
			} else if n == 2 {
				bad = 2
			}
			lg.corrupt += bad
			lg.replayed -= bad
		}
		logged(WALKindExtensionBatch, dataset.MarshalBatch(recs))
		lg.replayed += uint64(n)
		for _, rec := range goldenRecords(r, r.Intn(3)) {
			logged(WALKindExtension, legacyCSVPayload(t, rec))
			lg.replayed++
		}
		for _, s := range goldenNodeSamples(r, r.Intn(2)) {
			payload, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			logged(walKindNode, append(payload, '\n'))
			lg.nodes++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return lg
}

// mixedLogDigest recovers lg at 1 and 4 shards, with cfg's other fields,
// and hashes what each rebuilt: the snapshotDigest, every WALRecovery
// counter, and each group's domains in first-seen order. A group lists a
// domain where the first row naming it was applied, so the last part pins
// the order replay applied the log in, not just what it applied.
func mixedLogDigest(t *testing.T, lg mixedLog, cfg Config) string {
	t.Helper()
	h := sha256.New()
	for _, shards := range []int{1, 4} {
		cfg.Shards, cfg.Registry, cfg.WAL = shards, obs.NewRegistry(), WALConfig{Dir: copyWALDir(t, lg.dir)}
		a, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := a.WALRecovery()
		if rec.ReplayedRecords != lg.replayed || rec.SkippedCorrupt != lg.corrupt || rec.SkippedNodeRecords != lg.nodes {
			t.Fatalf("shards=%d: recovery %+v; want %d replayed, %d corrupt and %d node samples",
				shards, rec, lg.replayed, lg.corrupt, lg.nodes)
		}
		if rec.Log.Segments < 8 {
			t.Fatalf("log spans %d segments; want several", rec.Log.Segments)
		}
		h.Write([]byte(snapshotDigest(t, a)))
		counters, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(counters)
		for _, g := range a.Snapshot().ext {
			fmt.Fprintf(h, "\n%q %q %q", g.City, g.ISP, g.domains)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMixedLogDigest is what recovery rebuilt from writeMixedLog's log
// while replay still parsed every frame on the one goroutine that read it.
const goldenMixedLogDigest = "c4620707653007f1c86bd72d6de9c456b99b0a301427226dc99b30da674f04f3"

// TestRecoveryMixedLogDigest pins what recovery rebuilds from a log that
// mixes every record kind and fault replay meets, and the order it applied
// them in, at 1, 2, 4 and 8 parse workers: frames parse concurrently, but
// the shards must still apply them in log order.
func TestRecoveryMixedLogDigest(t *testing.T) {
	lg := writeMixedLog(t)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := mixedLogDigest(t, lg, Config{replayWorkers: workers}); got != goldenMixedLogDigest {
			t.Fatalf("workers=%d: mixed-log recovery digest %s, want %s", workers, got, goldenMixedLogDigest)
		}
	}
}
