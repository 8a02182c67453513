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
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// goldenRecoveryDigest was computed while replay still applied every frame
// inline on the opening goroutine, before the shard goroutines started. It
// covers what recovery rebuilds from the log writeRecoveryLog leaves, at
// several shard counts, so it must not move.
const goldenRecoveryDigest = "57e59e08c60cf78f8bcc67bbb446c8d86021ae8356f3977a2aa7906bceaa48fa"

// writeRecoveryLog writes a seeded log straight through wal.Writer: batch
// frames from one row to 4 096, legacy kind-1 CSV rows and node samples
// between them, a checkpoint partway through, and after it a frame with
// out-of-range PTT rows and one payload that does not decode. The checkpoint
// holds what a reference aggregator built from the records logged before it.
// It returns the log directory and the records and corrupt rows replay
// should count.
func writeRecoveryLog(t *testing.T) (dir string, replayed, skipped uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(30))
	dir = t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewAggregator(Config{Shards: 4, Registry: obs.NewRegistry()})
	defer ref.Close()
	var refOffered uint64
	logged := func(kind byte, payload []byte) {
		t.Helper()
		if _, err := w.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	// section logs one frame per size, each followed by a few CSV rows and
	// node samples; before the checkpoint the reference takes the same.
	section := func(sizes []int, toRef bool) {
		for _, n := range sizes {
			recs := goldenRecords(r, n)
			logged(WALKindExtensionBatch, dataset.MarshalBatch(recs))
			replayed += uint64(n)
			for _, rec := range goldenRecords(r, r.Intn(4)) {
				logged(WALKindExtension, legacyCSVPayload(t, rec))
				replayed++
				recs = append(recs, rec)
			}
			samples := goldenNodeSamples(r, r.Intn(3))
			for _, s := range samples {
				payload, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				logged(WALKindNode, append(payload, '\n'))
				replayed++
			}
			if !toRef {
				continue
			}
			if acc, _ := ref.OfferExtensionFrame(nil, recs, trace.SpanContext{}); acc != len(recs) {
				t.Fatalf("reference accepted %d of %d", acc, len(recs))
			}
			for _, s := range samples {
				if !ref.OfferNodeSample(s) {
					t.Fatal("reference rejected a sample")
				}
			}
			refOffered += uint64(len(recs) + len(samples))
		}
	}
	section([]int{1, 4096, 2, 17, 333, 1, 1024, 64}, true)

	waitProcessed(ref, refOffered)
	st, err := ref.Snapshot().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := json.Marshal(ckptFile{RelErr: ref.cfg.SketchRelErr, Ext: st.Groups, Nodes: st.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveCheckpoint(nil, dir, w.AppendedLSN(), ckpt); err != nil {
		t.Fatal(err)
	}
	replayed = 0

	section([]int{7, 2500, 1, 4096, 3, 900}, false)
	bad := goldenRecords(r, 40)
	for i, v := range []float64{-1, math.NaN(), 2 * maxPTTMs, math.Inf(1), math.Inf(-1)} {
		bad[3+7*i].PTTMs = v
	}
	logged(WALKindExtensionBatch, dataset.MarshalBatch(bad))
	replayed, skipped = replayed+35, skipped+5
	logged(WALKindExtensionBatch, []byte("not a batch frame"))
	skipped++
	section([]int{128, 1}, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, replayed, skipped
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

// TestRecoveryGoldenDigest recovers one seeded log at 1, 3, 4 and 8 shards
// and pins what each rebuilt, so a change to how replay reaches the shards
// cannot change what they hold.
func TestRecoveryGoldenDigest(t *testing.T) {
	dir, replayed, skipped := writeRecoveryLog(t)
	h := sha256.New()
	for _, shards := range []int{1, 3, 4, 8} {
		a, err := OpenAggregator(Config{Shards: shards, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: copyWALDir(t, dir)}})
		if err != nil {
			t.Fatal(err)
		}
		rec := a.WALRecovery()
		if rec.CheckpointLSN == 0 || rec.RestoredRecords == 0 || rec.ReplayedRecords != replayed || rec.SkippedCorrupt != skipped {
			t.Fatalf("shards=%d: recovery %+v; want a checkpoint, %d replayed and %d skipped", shards, rec, replayed, skipped)
		}
		h.Write(recoveryDigest(t, a))
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRecoveryDigest {
		t.Fatalf("recovery digest %s, want %s", got, goldenRecoveryDigest)
	}
}

// TestQueueItemSize pins the queue slot: every slot of every shard's channel
// holds an item, so it must stay small (it was 184 B while it carried a node
// sample by value).
func TestQueueItemSize(t *testing.T) {
	if size := unsafe.Sizeof(item{}); size > 112 {
		t.Fatalf("a queue item is %d B; budget is 112", size)
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
// in the pool, so at no moment may more than replayWindow+1 views be live —
// the window's plus the one the reader is parsing — and the pipeline must
// actually have overlapped: two views with the shards at once.
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
