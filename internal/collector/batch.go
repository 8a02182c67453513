package collector

// Columnar batch ingest: the one way browsing records reach the shards.
//
// POST /ingest/batch carries concatenated dataset batch frames
// (dataset.MarshalBatch); POST /ingest/extension carries CSV rows, which the
// server gathers into frames of its own (server.go). Either way a frame has
// one decoded form here, the dataset.BatchView, and one way into the shards,
// OfferBatchView: the WAL logs the frame once, the shards take it as row
// slices, and the ack rides the group-commit fsync. Whatever has to cut a
// frame up — the forwarder by ring owner, the WAL by payload bound —
// re-encodes row subsets of the view (BatchEncoder.EncodeRows) and never
// builds a record slice.

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// walKindExtensionBatch logs one columnar frame (dataset.MarshalBatch
// bytes) holding many extension records.
const walKindExtensionBatch byte = 3

// WALKindExtensionBatch is the batch-frame record kind exported for offline
// log consumers (cluster compaction, collectord -wal-dump).
const WALKindExtensionBatch = walKindExtensionBatch

// DecodeWALExtensionBatch parses a walKindExtensionBatch payload back into
// the records it logged, for the offline consumers that want records
// (cluster compaction, collectord -wal-dump); recovery replays the view.
func DecodeWALExtensionBatch(payload []byte) ([]extension.Record, error) {
	return dataset.UnmarshalBatch(payload)
}

// OfferExtensionFrame is an adapter onto OfferBatchView: frame (or, when it
// is nil, recs re-marshalled) is parsed into a pooled view and offered. No
// ingest path calls it — it survives as an exported name only because
// benchmark/other_layers.go times it under
// collector.offer_frame_ns_per_record; drop it when that metric is retired.
func (a *Aggregator) OfferExtensionFrame(frame []byte, recs []extension.Record, sc trace.SpanContext) (accepted, dropped int) {
	if frame == nil {
		frame = dataset.MarshalBatch(recs)
	}
	v, err := a.views.Parse(frame)
	if err != nil {
		for i := range recs {
			a.shardFor(recs[i].City, recs[i].ISP).met.dropped.Inc()
		}
		return 0, len(recs)
	}
	return a.OfferBatchView(v, sc)
}

// batchApply is the shared fan-out header for one zero-copy batch: the view
// every shard reads rows from, a count of outstanding references, and the
// row partition. The offerer takes one reference per touched shard before
// anything is sent; each shard (or the offerer, for a shed slice) drops one
// when its slice is finished, and the last reference returns the view and
// the header to their pools. A mark's header (Aggregator.mark) is never
// pooled and holds no view: only its snaps slots and its passed count.
type batchApply struct {
	agg  *Aggregator
	view *dataset.BatchView

	pending atomic.Int32

	rows    []int32 // row indices, shard-major, then (city, ISP) group by group, ascending per group
	offs    []int32 // per-shard [start, end) offsets into rows; len = shards+1
	shardOf []int32 // scratch: owning shard per (city, ISP) pair
	next    []int32 // scratch: per-shard write cursor for the placement pass

	snaps  []shardSnap    // a mark's per-shard snapshot slots, nil if it asks for none
	passed sync.WaitGroup // a mark's shards that have not passed it yet
}

// done releases one shard's reference on the shared view. The last one
// returns the view and the header to their pools and, during replay, the
// view's token to the replay window.
func (b *batchApply) done() {
	if b.pending.Add(-1) == 0 {
		window := b.agg.window
		b.agg.views.Put(b.view)
		b.view = nil
		b.agg.applyPool.Put(b)
		if window != nil {
			<-window
		}
	}
}

// partition lays the view's row indices out by owning shard and, within a
// shard, by (city, ISP) group: a pooled pairIndex numbers the view's
// groups, each group is hashed to its shard once, and a counting sort over
// the groups places every row in one more pass, with no per-row
// allocation. Groups follow each other in the order the view first names
// them, and each group's rows stay ascending, so every group sees its rows
// in frame order — its domain order, sketch and float sums do not depend on
// the shard count — and a shard applies one group's rows back to back,
// with one group lookup each.
func (b *batchApply) partition() {
	a, v := b.agg, b.view
	n, nsh := v.Len(), len(a.shards)
	pairs := a.numberPairs(v)
	defer a.pairPool.Put(pairs)
	b.rows = growI32(b.rows, n)
	b.shardOf = growI32(b.shardOf, len(pairs.first))
	b.offs = growI32(b.offs, nsh+1)
	b.next = growI32(b.next, nsh)
	clear(b.offs)
	for p, i := range pairs.first {
		s := int32(shardHash(v.City(int(i)), v.ISP(int(i))) % uint32(nsh))
		b.shardOf[p] = s
		b.offs[s+1] += pairs.count[p]
	}
	for s := 0; s < nsh; s++ {
		b.offs[s+1] += b.offs[s]
	}
	copy(b.next, b.offs[:nsh])
	at := pairs.count // each pair's count becomes its write cursor
	for p, s := range b.shardOf {
		at[p], b.next[s] = b.next[s], b.next[s]+at[p]
	}
	for i, p := range pairs.of {
		b.rows[at[p]] = int32(i)
		at[p]++
	}
}

// partitionView takes a fan-out header from the pool, partitions v's rows by
// shard and takes one reference per touched shard, returning the header and
// that count. The count must be final before the first slice is handed over:
// a shard may finish — and call done — while later slices are still in
// flight, and the last done recycles the header, so callers walk the shards
// only until they have handed over that many slices.
func (a *Aggregator) partitionView(v *dataset.BatchView) (*batchApply, int32) {
	ba, _ := a.applyPool.Get().(*batchApply)
	if ba == nil {
		ba = &batchApply{agg: a}
	}
	ba.view = v
	ba.partition()
	touched := int32(0)
	for s := range a.shards {
		if ba.offs[s+1] > ba.offs[s] {
			touched++
		}
	}
	ba.pending.Store(touched)
	return ba, touched
}

// numberPairs numbers v's (city, ISP) pairs in a pairIndex from the pool;
// the caller puts it back when done.
func (a *Aggregator) numberPairs(v *dataset.BatchView) *pairIndex {
	pairs, _ := a.pairPool.Get().(*pairIndex)
	if pairs == nil {
		pairs = new(pairIndex)
	}
	pairs.number(v)
	return pairs
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// maxPTTMs is the longest page transfer time ingest accepts: an hour.
const maxPTTMs = 3600e3

// validPTT reports whether v is a PTT ingest accepts: in [0, maxPTTMs],
// which also rules out NaN and the infinities. Ingest refuses any other, on
// both wires, before the WAL sees it. The sketch skips a NaN, leaving its
// group's count short of what was accepted; an infinite PTT, or two near
// MaxFloat64, overflow the group's sum; and a negative one is no duration.
// Bounded, a group's sum stays below 2^64 × maxPTTMs, far inside float64.
func validPTT(v float64) bool { return v >= 0 && v <= maxPTTMs }

// badPTTRow returns the first row of v whose PTT is not valid, or -1.
func badPTTRow(v *dataset.BatchView) int {
	for i := 0; i < v.Len(); i++ {
		if !validPTT(v.PTTMs(i)) {
			return i
		}
	}
	return -1
}

// validRows is replay's side of the same rule, for logs written before
// ingest enforced it: it returns v unchanged when every PTT is valid, and
// otherwise releases v and returns a view of the valid rows (nil if none)
// and how many rows it dropped.
func (a *Aggregator) validRows(v *dataset.BatchView) (*dataset.BatchView, int) {
	if badPTTRow(v) < 0 {
		return v, 0
	}
	defer a.views.Put(v)
	rows := make([]int32, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		if validPTT(v.PTTMs(i)) {
			rows = append(rows, int32(i))
		}
	}
	if len(rows) == 0 {
		return nil, v.Len()
	}
	kept, err := a.views.Parse(new(dataset.BatchEncoder).EncodeRows(v, rows))
	if err != nil {
		return nil, v.Len() // unreachable: the frame was just encoded
	}
	return kept, v.Len() - len(rows)
}

// OfferBatchView is the pipelined ingest fast path: it takes ownership of a
// pooled zero-copy view, logs its verbatim frame in one WAL append, hashes
// every row to its shard once, and hands each shard a single item carrying
// that shard's row slice — no per-record materialisation, no per-record
// channel send. Returns per-record accepted/dropped counts; the view returns
// to the pool when the last shard finishes (or immediately on the reject
// paths).
func (a *Aggregator) OfferBatchView(v *dataset.BatchView, sc trace.SpanContext) (accepted, dropped int) {
	n := v.Len()
	if n == 0 {
		a.views.Put(v)
		return 0, 0
	}
	// The shards key domains by a.views' ids, which a view parsed elsewhere
	// does not carry.
	a.views.Adopt(v)
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return 0, a.rejectView(v)
	}
	// Log before enqueue, as everywhere: one verbatim frame for the batch.
	if a.wal != nil {
		sp := a.cfg.Tracer.StartChild(sc, "wal.append")
		lsn, err := a.appendViewWAL(v)
		if err != nil {
			sp.SetError(err)
			sp.Finish()
			return 0, a.rejectView(v)
		}
		sp.SetInt("lsn", int64(lsn))
		sp.SetInt("records", int64(n))
		sp.Finish()
	}
	return a.enqueueView(v, sc)
}

// enqueueView partitions v by shard and hands each touched shard one item
// carrying its row slice, under the configured policy; the first item handed
// over carries sc. It is the one way browsing records reach a shard, live
// or replayed, and returns per-record accepted/dropped counts.
func (a *Aggregator) enqueueView(v *dataset.BatchView, sc trace.SpanContext) (accepted, dropped int) {
	ba, touched := a.partitionView(v)
	now := time.Now()
	spanned := false
	for s := 0; touched > 0; s++ {
		lo, hi := ba.offs[s], ba.offs[s+1]
		if lo == hi {
			continue
		}
		touched--
		sh := a.shards[s]
		it := item{kind: itemBatch, enqueued: now, batch: ba, rows: ba.rows[lo:hi]}
		if !spanned {
			it.span = sc
			spanned = true
		}
		if a.cfg.Policy == Block {
			sh.ch <- it
			sh.met.accepted.Add(uint64(hi - lo))
			accepted += int(hi - lo)
			continue
		}
		select {
		case sh.ch <- it:
			sh.met.accepted.Add(uint64(hi - lo))
			accepted += int(hi - lo)
		default:
			sh.met.dropped.Add(uint64(hi - lo))
			dropped += int(hi - lo)
			ba.done() // the shed slice's reference is ours to release
		}
	}
	return accepted, dropped
}

// rejectView counts every row of a refused view as dropped on its shard,
// one hash per (city, ISP) group, releases the view, and returns the row
// count.
func (a *Aggregator) rejectView(v *dataset.BatchView) int {
	pairs := a.numberPairs(v)
	for p, i := range pairs.first {
		a.shardFor(v.City(int(i)), v.ISP(int(i))).met.dropped.Add(uint64(pairs.count[p]))
	}
	a.pairPool.Put(pairs)
	n := v.Len()
	a.views.Put(v)
	return n
}

// appendViewWAL logs the view's verbatim wire frame — already CRC-checked by
// the parse — when it fits the WAL payload bound. Wire frames from
// well-behaved clients do; the split exists so a single giant frame cannot
// wedge durable ingest.
func (a *Aggregator) appendViewWAL(v *dataset.BatchView) (uint64, error) {
	if frame := v.Frame(); len(frame) <= wal.MaxPayload {
		return a.wal.Append(walKindExtensionBatch, frame)
	}
	rows := make([]int32, v.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return a.appendRowsWAL(new(dataset.BatchEncoder), v, rows)
}

// appendRowsWAL logs the given rows of an oversize frame as one re-encoded
// frame, or — while that still exceeds the bound — as two halves,
// recursively. Replay applies the pieces in log order, which is row order.
func (a *Aggregator) appendRowsWAL(enc *dataset.BatchEncoder, v *dataset.BatchView, rows []int32) (uint64, error) {
	frame := enc.EncodeRows(v, rows)
	if len(frame) <= wal.MaxPayload {
		return a.wal.Append(walKindExtensionBatch, frame)
	}
	if len(rows) <= 1 {
		return 0, fmt.Errorf("collector: one-record frame of %d bytes exceeds WAL payload limit", len(frame))
	}
	mid := len(rows) / 2
	if _, err := a.appendRowsWAL(enc, v, rows[:mid]); err != nil {
		return 0, err
	}
	return a.appendRowsWAL(enc, v, rows[mid:])
}

// maxPooledSplitter caps what a splitter may hold (frameSplitter.size) and
// still go back to the pool. A request that outgrew it (a giant frame, local
// or not) drops its splitter rather than pinning the memory.
const maxPooledSplitter = 4 << 20

// peerFrames is one peer's share of an ingest request: rows is scratch for
// the frame being split, body the re-encoded sub-frames to POST, concatenated
// (the /ingest/batch wire format), so a request costs one POST per peer
// however many frames it carried.
type peerFrames struct {
	peer    string
	rows    []int32
	body    []byte
	records int
}

// frameSplitter cuts a request's misrouted frames up by ring owner. Servers
// pool it across requests (Server.splitter, Server.releaseSplitter), so its
// encoder, scratch and peer bodies stop regrowing from zero every request.
type frameSplitter struct {
	fwd    Forwarder
	enc    dataset.BatchEncoder
	pairs  pairIndex
	owners []*peerFrames // per (city, ISP) pair: its owner, nil for here
	local  []int32
	known  []*peerFrames // every peer this splitter has served, buffers kept
	peers  []*peerFrames // this request's peers, in first-seen order
}

// split asks the forwarder for the owner of each (city, ISP) group the view
// names, once per group, and returns the view this instance should apply.
// An all-local frame — the common case — comes back untouched. Otherwise
// each peer's rows are re-encoded onto its body, v is released, and the
// local rows come back as a frame of their own (what this instance logs
// must be what it keeps), or nil when every row belonged elsewhere. A peer
// joins the request's peers when a row first names it, so the peers and
// every sub-frame's rows keep row order.
func (sp *frameSplitter) split(views *dataset.ViewPool, v *dataset.BatchView) (*dataset.BatchView, error) {
	sp.pairs.number(v)
	sp.owners = sp.owners[:0]
	remote := false
	for _, i := range sp.pairs.first {
		pf := sp.owner(v.City(int(i)), v.ISP(int(i)))
		sp.owners = append(sp.owners, pf)
		remote = remote || pf != nil
	}
	if !remote {
		return v, nil
	}
	defer views.Put(v)
	sp.local = growI32(sp.local, v.Len())[:0]
	for i, p := range sp.pairs.of {
		pf := sp.owners[p]
		if pf == nil {
			sp.local = append(sp.local, int32(i))
			continue
		}
		if len(pf.rows) == 0 && pf.records == 0 {
			sp.peers = append(sp.peers, pf)
		}
		pf.rows = append(pf.rows, int32(i))
	}
	for _, pf := range sp.peers {
		if len(pf.rows) == 0 {
			continue
		}
		pf.body = append(pf.body, sp.enc.EncodeRows(v, pf.rows)...)
		pf.records += len(pf.rows)
		pf.rows = pf.rows[:0]
	}
	if len(sp.local) == 0 {
		return nil, nil
	}
	return views.Parse(sp.enc.EncodeRows(v, sp.local))
}

// owner asks the forwarder who owns (city, isp) and returns that peer's
// peerFrames, or nil when the group stays here.
func (sp *frameSplitter) owner(city, isp string) *peerFrames {
	peer := sp.fwd.OwnerExtension(city, isp)
	if peer == "" {
		return nil
	}
	k := 0
	for k < len(sp.known) && sp.known[k].peer != peer {
		k++
	}
	if k == len(sp.known) {
		sp.known = append(sp.known, &peerFrames{peer: peer})
	}
	return sp.known[k]
}

// size is the bytes sp holds at capacity: row and pair scratch, peer bodies
// and the encoder's scratch.
func (sp *frameSplitter) size() int {
	n := 4*cap(sp.local) + sp.pairs.size() + 8*cap(sp.owners) + sp.enc.Footprint()
	for _, pf := range sp.known {
		n += 4*cap(pf.rows) + cap(pf.body)
	}
	return n
}

// splitter takes a pooled splitter for a request routed through fwd.
func (s *Server) splitter(fwd Forwarder) *frameSplitter {
	sp, _ := s.splitters.Get().(*frameSplitter)
	if sp == nil {
		sp = new(frameSplitter)
	}
	sp.fwd = fwd
	return sp
}

// releaseSplitter empties sp and pools it unless it is nil or has outgrown
// maxPooledSplitter. Call it only when no transport can still read a peer
// body — before any forward, or after every forward succeeded: net/http may
// still be reading a request body after a failed Do returns, so a splitter
// whose forward failed is dropped, never released.
func (s *Server) releaseSplitter(sp *frameSplitter) {
	if sp == nil || sp.size() > maxPooledSplitter {
		return
	}
	for _, pf := range sp.peers {
		pf.rows, pf.body, pf.records = pf.rows[:0], pf.body[:0], 0
	}
	sp.peers = sp.peers[:0]
	sp.fwd = nil
	s.splitters.Put(sp)
}

// viewIngest is one ingest request's pass through the steps both browsing
// wires share once they hold a frame: the PTT check, the split by ring
// owner when a forwarder routes the request, OfferBatchView for the rows
// this instance keeps, and at the end one ForwardFrame per peer, in the
// order the request's rows first named them.
type viewIngest struct {
	s      *Server
	split  *frameSplitter
	decode *trace.Span
	reply  IngestReply
}

// beginViewIngest opens the request's decode span under its root span (nil
// when untraced, and then every span call is a no-op) and, when a
// forwarder routes the request, takes a pooled splitter. A batch a peer
// forwarded is applied where it lands, so a stale ring view costs one
// extra hop, never a loop.
func (s *Server) beginViewIngest(r *http.Request) viewIngest {
	in := viewIngest{s: s}
	if root := trace.FromContext(r.Context()); root != nil {
		in.decode = s.agg.cfg.Tracer.StartChild(root.Context(), "ingest.decode")
	}
	if fwd := s.forwarder(); fwd != nil && r.Header.Get(HeaderForwarded) == "" {
		in.split = s.splitter(fwd)
	}
	return in
}

// offer runs one pooled view through the shared steps, taking ownership of
// it. An error means the request is bad: answer it with fail.
func (in *viewIngest) offer(v *dataset.BatchView) error {
	if i := badPTTRow(v); i >= 0 {
		err := fmt.Errorf("row %d: ptt %v outside [0, %v]", i, v.PTTMs(i), maxPTTMs)
		in.s.agg.views.Put(v)
		return err
	}
	if in.split != nil {
		var err error
		if v, err = in.split.split(&in.s.agg.views, v); err != nil || v == nil {
			return err // v == nil: every row belonged elsewhere
		}
	}
	// What the request offers until something is accepted carries the
	// decode span, the rest a zero context: one shard.apply span per
	// request, one branch per slice.
	var sc trace.SpanContext
	if in.reply.Accepted == 0 {
		sc = in.decode.Context()
	}
	acc, drop := in.s.agg.OfferBatchView(v, sc)
	in.reply.Accepted += acc
	in.reply.Dropped += drop
	return nil
}

// answer replies with status, the counts so far and an error message.
func (in *viewIngest) answer(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		IngestReply
		Error string `json:"error"`
	}{in.reply, msg})
}

// fail answers a malformed request with a 400 carrying the counts so far.
// Rows already offered stay aggregated; no peer is sent its rows.
func (in *viewIngest) fail(w http.ResponseWriter, msg string, err error) {
	in.decode.SetError(err)
	in.decode.Finish()
	in.answer(w, http.StatusBadRequest, fmt.Sprintf("%s: %v", msg, err))
	in.s.releaseSplitter(in.split)
}

// finish closes the decode span, forwards each peer its rows, and
// acknowledges the request once everything is owned and durable.
//
// A peer that cannot take its rows gets the request a 502: the rows kept
// here are already aggregated (and will be made durable), and the sender
// must treat the batch as unacknowledged and may retry, as it may after
// any 5xx — ingest is at-least-once. With a WAL, the 200 is sent only once
// every record is fsynced; group commit shares one fsync across concurrent
// requests. The wait is spanned as wal.fsync under the request's root, and
// the ack-latency histogram carries the trace as an exemplar.
func (in *viewIngest) finish(w http.ResponseWriter, r *http.Request, start time.Time) {
	if in.decode != nil {
		in.decode.SetInt("accepted", int64(in.reply.Accepted))
		in.decode.SetInt("dropped", int64(in.reply.Dropped))
		in.decode.Finish()
	}
	root := trace.FromContext(r.Context())
	if split := in.split; split != nil {
		for _, pf := range split.peers {
			n, err := split.fwd.ForwardFrame(pf.peer, pf.body, pf.records, root.Context())
			in.reply.Forwarded += n
			if err != nil {
				in.answer(w, http.StatusBadGateway, fmt.Sprintf("forward to %s: %v", pf.peer, err))
				return // split is dropped: the failed POST may still read its body
			}
		}
	}
	in.s.releaseSplitter(in.split)
	agg := in.s.agg
	var fsync *trace.Span
	if root != nil && agg.wal != nil {
		fsync = agg.cfg.Tracer.StartChild(root.Context(), "wal.fsync")
	}
	err := agg.SyncWAL()
	fsync.SetError(err)
	fsync.Finish()
	if err != nil {
		in.answer(w, http.StatusInternalServerError, fmt.Sprintf("wal commit: %v", err))
		return
	}
	if root != nil {
		agg.met.ackLatency.ObserveExemplar(time.Since(start).Seconds(), root.Context().Trace.String())
	} else {
		agg.met.ackLatency.Observe(time.Since(start).Seconds())
	}
	WriteJSON(w, http.StatusOK, in.reply)
}

// handleIngestBatch runs each frame of the body through the shared steps:
// validated once into a pooled zero-copy view, split when rows belong
// elsewhere, and fanned to the shards as row slices. The 200 waits on the WAL
// group commit and on every forward.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if reason, ok := s.admitIngest(r); !ok {
		shedReject(w, r, reason)
		return
	}
	in := s.beginViewIngest(r)
	for {
		v, err := s.agg.views.Read(r.Body)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = in.offer(v)
		}
		if err != nil {
			in.fail(w, "bad frame", err)
			return
		}
	}
	in.finish(w, r, start)
}
