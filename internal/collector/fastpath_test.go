package collector

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// TestShardHashMatchesFNV pins the inlined routing hash to the hash/fnv
// stream it replaced. Checkpoints restore groups with the same function, so
// any divergence would scatter restored state onto the wrong shards.
func TestShardHashMatchesFNV(t *testing.T) {
	check := func(k1, k2 string) {
		t.Helper()
		h := fnv.New32a()
		h.Write([]byte(k1))
		h.Write([]byte{0})
		h.Write([]byte(k2))
		if got, want := shardHash(k1, k2), h.Sum32(); got != want {
			t.Fatalf("shardHash(%q, %q) = %#x, fnv stream = %#x", k1, k2, got, want)
		}
	}
	check("", "")
	check("London", "starlink")
	check("a\x00b", "c\x00")
	check("Zürich", "terrestrial")
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		b1 := make([]byte, r.Intn(24))
		b2 := make([]byte, r.Intn(24))
		r.Read(b1)
		r.Read(b2)
		check(string(b1), string(b2))
	}
}

// fastpathRecords draws a workload with enough key diversity to touch every
// shard and enough repetition to exercise the interner and group memo.
func fastpathRecords(r *rand.Rand, n int) []extension.Record {
	cities := []string{"London", "Zürich", "São Paulo", "Kraków", "Reykjavík", "Berlin", "Paris", "Oslo", "Lima", "Cairo"}
	isps := []string{"starlink", "terrestrial", "dsl"}
	domains := []string{"example.com", "news.site", "video.cdn", "a.b.c", "検索.jp"}
	recs := make([]extension.Record, n)
	for i := range recs {
		recs[i] = extension.Record{
			UserID: "user-x", City: cities[r.Intn(len(cities))], Country: "UK",
			ISP: isps[r.Intn(len(isps))], ASN: 14593,
			At: time.Unix(int64(1700000000+i), 0), Domain: domains[r.Intn(len(domains))],
			Rank: i, Popular: i%3 == 0, PTTMs: float64(10 + r.Intn(500)),
			PLTMs: float64(100 + r.Intn(900)),
		}
	}
	return recs
}

// serialShape is one frame sequence the serial-equivalence oracle runs.
type serialShape struct {
	name   string
	frames [][]byte
}

// serialShapes draws the oracle's frame shapes: the seeded mix; one (city,
// ISP) pair throughout; every row its own pair; and frames whose city and
// ISP dictionaries repeat entries, as only a foreign encoder writes them.
func serialShapes(t *testing.T) []serialShape {
	r := rand.New(rand.NewSource(23))
	var mix, one, distinct, repeated [][]byte
	for i := 0; i < 8; i++ {
		mix = append(mix, dataset.MarshalBatch(fastpathRecords(r, 1+r.Intn(700))))
	}
	for i := 0; i < 3; i++ {
		recs := fastpathRecords(r, 1+r.Intn(300))
		for j := range recs {
			recs[j].City, recs[j].ISP = "Oslo", "starlink"
		}
		one = append(one, dataset.MarshalBatch(recs))
	}
	for i := 0; i < 2; i++ {
		recs := fastpathRecords(r, 400)
		for j := range recs {
			recs[j].City = fmt.Sprintf("city-%d-%03d", i, j)
		}
		distinct = append(distinct, dataset.MarshalBatch(recs))
	}
	for i := 0; i < 3; i++ {
		frame := dataset.MarshalBatch(fastpathRecords(r, 2+r.Intn(400)))
		crafted := withRepeatedDictEntries(t, frame, 1, 3)
		if bytes.Equal(crafted, frame) {
			t.Fatal("the crafted frame repeats no entry")
		}
		repeated = append(repeated, crafted)
	}
	return []serialShape{{"mix", mix}, {"one-pair", one}, {"distinct-pairs", distinct}, {"repeated-entries", repeated}}
}

// TestOfferBatchViewMatchesSerial is the fan-out equivalence property: at
// every shard count, each route a frame takes to the shards — a view offered
// directly, a POST to /ingest/batch, and replay of a log with no checkpoint —
// must leave the aggregator in byte-identical state (rendered group rows,
// city table, counters, and each group's domains in first-seen order and
// sketch bytes) to the frames' records folded serially, one at a time,
// because each shard applies every group's rows in frame order.
func TestOfferBatchViewMatchesSerial(t *testing.T) {
	routes := []struct {
		name string
		run  func(t *testing.T, shards int, frames [][]byte) *Snapshot
	}{
		{"view", serialViaView},
		{"http", serialViaHTTP},
		{"replay", serialViaReplay},
	}
	for _, shape := range serialShapes(t) {
		var recs []extension.Record
		for _, frame := range shape.frames {
			got, err := dataset.UnmarshalBatch(frame)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, got...)
		}
		want := serialState(t, foldSnapshot(recs))
		for _, shards := range []int{1, 2, 3, 4, 7} {
			for _, route := range routes {
				got := serialState(t, route.run(t, shards, shape.frames))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, %d shards, %s: snapshot differs from the serial fold:\n got  %s\n fold %s",
						shape.name, shards, route.name, got, want)
				}
			}
		}
	}
}

// serialState is comparableAggSnapshot followed by every group's key,
// domains in first-seen order and sketch bytes, in key order: what a
// different row order within a group would change.
func serialState(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	out := comparableAggSnapshot(t, snap)
	for _, g := range snap.ext {
		sk, err := g.ptt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = fmt.Appendf(out, "\n%q %q %q %x", g.City, g.ISP, g.domains, sk)
	}
	return out
}

// serialViaView offers each frame as a view parsed by the aggregator's pool.
func serialViaView(t *testing.T, shards int, frames [][]byte) *Snapshot {
	a := NewAggregator(Config{Shards: shards, QueueLen: 4096, Registry: obs.NewRegistry()})
	for _, frame := range frames {
		v, err := a.views.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		n := v.Len() // the offer takes v
		if acc, drop := a.OfferBatchView(v, trace.SpanContext{}); acc != n || drop != 0 {
			t.Fatalf("accepted %d dropped %d of %d", acc, drop, n)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return a.Snapshot()
}

// serialViaHTTP posts each frame as one /ingest/batch request.
func serialViaHTTP(t *testing.T, shards int, frames [][]byte) *Snapshot {
	srv := NewServer(Config{Shards: shards, Registry: obs.NewRegistry()})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		recs, err := dataset.UnmarshalBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		if reply := postFrames(t, srv, frame); reply.Accepted != len(recs) {
			t.Fatalf("batch request: reply %+v, want %d accepted", reply, len(recs))
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv.Aggregator().Snapshot()
}

// serialViaReplay logs the frames straight through wal.Writer and recovers
// them, with no checkpoint, into a fresh aggregator.
func serialViaReplay(t *testing.T, shards int, frames [][]byte) *Snapshot {
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		if _, err := w.Append(WALKindExtensionBatch, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAggregator(Config{Shards: shards, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := a.WALRecovery(); rec.RestoredRecords != 0 || rec.SkippedCorrupt != 0 {
		t.Fatalf("recovery %+v, want a replay only", rec)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return a.Snapshot()
}

// withRepeatedDictEntries returns frame with each named dictionary column's
// entries written twice and every odd row pointed at the second copy: a
// frame that decodes to the same records but that this package's encoders
// never write.
func withRepeatedDictEntries(t *testing.T, frame []byte, cols ...byte) []byte {
	t.Helper()
	return rewriteColumns(frame, func(id, enc byte, payload []byte) (byte, []byte) {
		if bytes.IndexByte(cols, id) < 0 {
			return enc, payload
		}
		nEntries, first, end := dictEntriesEnd(payload)
		p := binary.AppendUvarint(nil, 2*nEntries)
		p = append(p, payload[first:end]...)
		p = append(p, payload[first:end]...)
		for row, q := 0, end; q < len(payload); row++ {
			ix, k := binary.Uvarint(payload[q:])
			q += k
			if row%2 == 1 {
				ix += nEntries
			}
			p = binary.AppendUvarint(p, ix)
		}
		return enc, p
	})
}

// sumProcessed totals the shard apply counters — the alloc test's barrier
// reads it in a spin loop, so it must not allocate.
func sumProcessed(a *Aggregator) uint64 {
	var n uint64
	for _, sh := range a.shards {
		n += sh.met.processed.Value()
	}
	return n
}

// TestBatchIngestAllocBudget pins the tentpole's allocation win: steady-state
// batch ingest — pooled view read, one-pass shard partition, fan-out, shard
// apply — must stay at or below 0.2 allocations per record (the committed
// baseline was 1/record). Run without the race detector; `make check` runs
// it explicitly.
func TestBatchIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc measurement loop is not short")
	}
	a := NewAggregator(Config{Shards: 8, QueueLen: 4096, Policy: Block})
	defer a.Close()

	const perFrame = 512
	recs := fastpathRecords(rand.New(rand.NewSource(24)), perFrame)
	frame := dataset.MarshalBatch(recs)

	var offered uint64
	rd := bytes.NewReader(frame)
	run := func() {
		rd.Reset(frame)
		v, err := a.views.Read(rd)
		if err != nil {
			panic(err)
		}
		acc, drop := a.OfferBatchView(v, trace.SpanContext{})
		if acc != perFrame || drop != 0 {
			panic("fast path rejected records")
		}
		offered += perFrame
		// Wait for the shards to finish so every run measures the whole
		// pipeline; Gosched (not sleep) keeps the barrier alloc-free.
		for sumProcessed(a) < offered {
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		run() // warm pools, interner, group maps, sketch buffers
	}
	perRun := testing.AllocsPerRun(200, run)
	perRecord := perRun / perFrame
	t.Logf("steady state: %.1f allocs/frame, %.4f allocs/record", perRun, perRecord)
	if perRecord > 0.2 {
		t.Fatalf("batch ingest allocates %.4f/record (%.1f/frame); budget is 0.2/record",
			perRecord, perRun)
	}
}

// ringThirds is a stand-in forwarder for the split tests: it owns a third of
// the (city, ISP) keyspace and spreads the rest over two peers, like one
// instance of a three-member ring, counts what it is asked to forward, and —
// when posts is non-nil — keeps each POST body.
type ringThirds struct {
	records int
	posts   map[string][][]byte
}

func (f *ringThirds) OwnerExtension(city, isp string) string {
	return [...]string{"", "peer-a", "peer-b"}[shardHash(isp, city)%3]
}

func (f *ringThirds) ForwardFrame(peer string, frames []byte, records int, _ trace.SpanContext) (int, error) {
	f.records += records
	if f.posts != nil {
		f.posts[peer] = append(f.posts[peer], append([]byte(nil), frames...))
	}
	return records, nil
}

// splitBytesPerRecord is the split's steady-state byte budget. The pooled
// splitter measures under 0.1 B per record; the headroom absorbs a GC
// emptying the pool and the splitter regrowing once.
const splitBytesPerRecord = 8

// TestForwardSplitAllocBudget holds the misrouted-frame split to the fast
// path's budget: one request's worth of work — take a splitter from the
// server's pool as the handler does, read a frame two thirds of which
// belongs to two peers, split it on the view, offer the local rows, hand each
// peer its body, release the splitter — at or below 0.2 allocations and
// splitBytesPerRecord bytes per record in the steady state. A splitter built
// fresh every request, as before the pool, cost 77 B per record here.
func TestForwardSplitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc measurement loop is not short")
	}
	srv := NewServer(Config{Shards: 8, QueueLen: 4096, Policy: Block})
	a := srv.Aggregator()
	defer a.Close()

	const perFrame = 512
	frame := dataset.MarshalBatch(fastpathRecords(rand.New(rand.NewSource(25)), perFrame))
	fwd := &ringThirds{}
	var offered uint64
	rd := bytes.NewReader(frame)
	run := func() {
		rd.Reset(frame)
		v, err := a.views.Read(rd)
		if err != nil {
			panic(err)
		}
		split := srv.splitter(fwd)
		if v, err = split.split(&a.views, v); err != nil || v == nil {
			panic("split kept no local rows")
		}
		acc, drop := a.OfferBatchView(v, trace.SpanContext{})
		if acc == 0 || acc == perFrame || drop != 0 {
			panic("split did not keep a strict subset")
		}
		offered += uint64(acc)
		before := fwd.records
		for _, pf := range split.peers {
			if _, err := fwd.ForwardFrame(pf.peer, pf.body, pf.records, trace.SpanContext{}); err != nil {
				panic(err)
			}
		}
		if acc+fwd.records-before != perFrame {
			panic("local and forwarded rows do not add up to the frame")
		}
		srv.releaseSplitter(split)
		for sumProcessed(a) < offered {
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		run()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.Mallocs-before.Mallocs) / (runs * perFrame)
	bytesPerRecord := float64(after.TotalAlloc-before.TotalAlloc) / (runs * perFrame)
	t.Logf("steady state: %.4f allocs/record, %.1f B/record", perRecord, bytesPerRecord)
	if perRecord > 0.2 {
		t.Errorf("misrouted-frame split allocates %.4f/record; budget is 0.2/record", perRecord)
	}
	if bytesPerRecord > splitBytesPerRecord {
		t.Errorf("misrouted-frame split allocates %.1f B/record; budget is %d B/record", bytesPerRecord, splitBytesPerRecord)
	}
}

// replayMallocs cold-opens an aggregator on a copy of dir and returns the
// heap allocations and bytes the open — recovery included — performed.
func replayMallocs(t *testing.T, dir string, wantRecords int) (mallocs, allocBytes uint64) {
	t.Helper()
	cp := copyWALDir(t, dir)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	agg, err := OpenAggregator(Config{Shards: 8, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: cp}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rec := agg.WALRecovery(); rec.ReplayedRecords != uint64(wantRecords) || rec.SkippedCorrupt != 0 {
		t.Fatalf("replayed %d records (%d corrupt), want %d", rec.ReplayedRecords, rec.SkippedCorrupt, wantRecords)
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// replayBytesPerRecord is replay's marginal byte budget. Replay measures
// about 0.3 B per record with its views crossing to the shard goroutines; a
// view that stopped going back to the pool would cost its frame buffer and
// columns again, tens of bytes per record.
const replayBytesPerRecord = 2

// TestBatchReplayAllocBudget holds WAL replay of a batch-frame log to the
// fast path's budget. Opening an aggregator has a fixed cost (registry,
// shards, the log itself), so the gate is on the marginal cost: the extra
// allocations a log three times as long takes to recover, per extra record,
// must stay at or below 0.2, and the extra bytes at or below
// replayBytesPerRecord. The materialising replay this replaced cost one
// record slice and a fresh string per dictionary entry per frame, about 208
// bytes per record.
func TestBatchReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc measurement loop is not short")
	}
	const perFrame, shortFrames, longFrames = 512, 64, 192
	r := rand.New(rand.NewSource(26))
	frames := make([][]byte, longFrames)
	for i := range frames {
		frames[i] = dataset.MarshalBatch(fastpathRecords(r, perFrame))
	}
	writeLog := func(n int) string {
		dir := t.TempDir()
		w, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames[:n] {
			if _, err := w.Append(WALKindExtensionBatch, f); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	shortDir, longDir := writeLog(shortFrames), writeLog(longFrames)
	replayMallocs(t, longDir, longFrames*perFrame) // warm the runtime's own caches
	shortN, shortB := replayMallocs(t, shortDir, shortFrames*perFrame)
	longN, longB := replayMallocs(t, longDir, longFrames*perFrame)
	extra := float64((longFrames - shortFrames) * perFrame)
	perRecord := (float64(longN) - float64(shortN)) / extra
	bytesPerRecord := (float64(longB) - float64(shortB)) / extra
	t.Logf("marginal replay cost: %.4f allocs/record, %.1f B/record (open: %d allocs for %d frames, %d for %d)",
		perRecord, bytesPerRecord, shortN, shortFrames, longN, longFrames)
	if perRecord > 0.2 {
		t.Errorf("batch replay allocates %.4f/record; budget is 0.2/record", perRecord)
	}
	if bytesPerRecord > replayBytesPerRecord {
		t.Errorf("batch replay allocates %.1f B/record; budget is %d B/record", bytesPerRecord, replayBytesPerRecord)
	}
}
