package collector

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// WAL record kinds. Each payload reuses a dataset release encoding, so a
// WAL segment is itself a replayable dataset of browsing records. Ingest
// logs batch frames (dataset.MarshalBatch bytes). An earlier CSV ingest
// route logged kind 1, one record as the CSV row dataset.MarshalExtensionRow
// emits; earlier builds logged kind 2, one volunteer-node sample as a JSON
// line, from a second ingest path. Nothing writes either now, but older
// logs hold them. readRecord is the one reading of every kind.
const (
	walKindExtension      byte = 1
	walKindNode           byte = 2
	walKindExtensionBatch byte = 3
)

// WALKindExtension and WALKindExtensionBatch are the kinds of a kind-1 row
// and of a batch frame, for the tests and benchmarks that write logs.
const (
	WALKindExtension      = walKindExtension
	WALKindExtensionBatch = walKindExtensionBatch
)

// WALSkips counts the logged records, and rows, a reader of the WAL skips.
type WALSkips struct {
	// SkippedCorrupt counts payloads that fail to decode, and rows whose
	// PTT ingest would refuse (which a log written before it did may hold).
	SkippedCorrupt uint64 `json:"skipped_corrupt"`
	// SkippedNodeRecords counts the volunteer-node samples an earlier build
	// logged (and, in recovery, checkpointed). None is applied.
	SkippedNodeRecords uint64 `json:"skipped_node_records,omitempty"`
}

// Add adds o's counts to s.
func (s *WALSkips) Add(o WALSkips) {
	s.SkippedCorrupt += o.SkippedCorrupt
	s.SkippedNodeRecords += o.SkippedNodeRecords
}

// ReadWALRecord is what one logged record contributes, as recovery replays
// it: a view from views of the rows recovery applies, nil if there are
// none, and what it skips. Cluster compaction and collectord -wal-dump read
// a log through it, so the release and the dump hold exactly the rows
// recovery applies. The caller puts the view back in views.
func ReadWALRecord(views *dataset.ViewPool, r wal.Rec) (*dataset.BatchView, WALSkips) {
	return readRecord(views, r.Kind, views.Fill(r.Payload))
}

// readRecord decides what a record of the given kind contributes, taking
// v, a view Fill copied its payload into:
//
//	batch frame  its rows; 1 corrupt if it does not parse
//	kind 1       its row; 1 corrupt if it does not decode
//	kind 2       nothing; 1 node sample, never decoded
//	other kinds  nothing; 1 corrupt
//
// and each row whose PTT ingest would refuse counts as corrupt instead.
func readRecord(views *dataset.ViewPool, kind byte, v *dataset.BatchView) (*dataset.BatchView, WALSkips) {
	var err error
	switch kind {
	case walKindExtensionBatch:
		err = views.ParseFilled(v)
	case walKindExtension:
		v, err = rowView(views, v)
	default:
		views.Put(v)
		if kind == walKindNode {
			return nil, WALSkips{SkippedNodeRecords: 1}
		}
		return nil, WALSkips{SkippedCorrupt: 1}
	}
	if err != nil {
		return nil, WALSkips{SkippedCorrupt: 1}
	}
	return validRows(views, v)
}

// rowView decodes the kind-1 payload v holds, one dataset CSV row, into a
// one-row view, and releases v.
func rowView(views *dataset.ViewPool, v *dataset.BatchView) (*dataset.BatchView, error) {
	defer views.Put(v)
	cr := csv.NewReader(bytes.NewReader(v.Frame()))
	cr.FieldsPerRecord = len(dataset.ExtensionHeader())
	row, err := cr.Read()
	if err != nil {
		return nil, err
	}
	rec, err := dataset.UnmarshalExtensionRow(row)
	if err != nil {
		return nil, err
	}
	return views.Parse(new(dataset.BatchEncoder).Encode([]extension.Record{rec}))
}

// validRows is replay's side of ingest's PTT rule, for logs written before
// ingest enforced it: it returns v unchanged when every PTT is valid, and
// otherwise releases v and returns a view of the valid rows. It returns
// nil for a view with no valid row, and counts each row it drops.
func validRows(views *dataset.ViewPool, v *dataset.BatchView) (*dataset.BatchView, WALSkips) {
	if v.Len() > 0 && badPTTRow(v) < 0 {
		return v, WALSkips{}
	}
	defer views.Put(v)
	rows := make([]int32, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		if validPTT(v.PTTMs(i)) {
			rows = append(rows, int32(i))
		}
	}
	dropped := WALSkips{SkippedCorrupt: uint64(v.Len() - len(rows))}
	if len(rows) == 0 {
		return nil, dropped
	}
	kept, err := views.Parse(new(dataset.BatchEncoder).EncodeRows(v, rows))
	if err != nil {
		return nil, WALSkips{SkippedCorrupt: uint64(v.Len())} // unreachable: the frame was just encoded
	}
	return kept, dropped
}

// WALConfig enables durable ingest. With a Dir set, every accepted record
// is appended to the write-ahead log before it is enqueued to its shard,
// HTTP batches are acknowledged only after their records are fsynced
// (group commit), and startup recovery rebuilds the aggregate state from
// the last checkpoint plus a log replay.
type WALConfig struct {
	// Dir holds segments and checkpoints; empty disables the WAL.
	Dir string
	// FsyncInterval is the minimum spacing between group-commit fsyncs:
	// at most one starts per interval (see wal.Config). Zero starts one
	// whenever a batch needs it; an idle log's batch fsyncs at once either
	// way.
	FsyncInterval time.Duration
	// MaxSyncWindows pipelines the group commit: up to this many fsync
	// windows in flight at once, acks released in append order (see
	// wal.Config.MaxSyncWindows; 0 or 1 keeps the serial commit).
	MaxSyncWindows int
	// SegmentBytes is the segment rotation threshold.
	SegmentBytes int64
	// CheckpointInterval writes periodic shard-snapshot checkpoints so
	// recovery replays only the log tail; zero disables the loop (a final
	// checkpoint is still taken on Close).
	CheckpointInterval time.Duration
	// FS overrides the filesystem for fault-injection tests.
	FS wal.FS
}

// WALRecovery summarises what startup recovery rebuilt.
type WALRecovery struct {
	// CheckpointLSN is the log position the loaded checkpoint covered.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// RestoredRecords came from the checkpoint's aggregates.
	RestoredRecords uint64 `json:"restored_records"`
	// ReplayedRecords were re-applied from the log tail.
	ReplayedRecords uint64 `json:"replayed_records"`
	// WALSkips counts the tail's records and rows readRecord skips, and
	// the count of each node group in the checkpoint as skipped node
	// samples. Replay skips them and never gives up.
	WALSkips
	// Log carries the segment-level recovery detail.
	Log wal.RecoveryStats `json:"log"`
}

// WALStats is the durability section of /stats.
type WALStats struct {
	Enabled           bool        `json:"enabled"`
	AppendedLSN       uint64      `json:"appended_lsn"`
	DurableLSN        uint64      `json:"durable_lsn"`
	Segments          int         `json:"segments"`
	AppendedBytes     int64       `json:"appended_bytes"`
	Syncs             uint64      `json:"syncs"`
	Checkpoints       uint64      `json:"checkpoints"`
	LastCheckpointLSN uint64      `json:"last_checkpoint_lsn"`
	Recovery          WALRecovery `json:"recovery"`
}

// ErrNoWAL reports a durability operation on an aggregator running without
// a write-ahead log.
var ErrNoWAL = errors.New("collector: aggregator has no WAL")

// SyncWAL blocks until every record appended so far is durable — the
// server's acknowledgement barrier. Without a WAL it is a no-op.
func (a *Aggregator) SyncWAL() error {
	if a.wal == nil {
		return nil
	}
	return a.wal.Commit(a.wal.AppendedLSN())
}

// WALStats reports the durability counters (zero-valued Enabled=false
// struct without a WAL).
func (a *Aggregator) WALStats() WALStats {
	if a.wal == nil {
		return WALStats{}
	}
	ws := a.wal.Stats()
	return WALStats{
		Enabled:           true,
		AppendedLSN:       ws.AppendedLSN,
		DurableLSN:        ws.DurableLSN,
		Segments:          ws.Segments,
		AppendedBytes:     int64(a.met.walAppendedBytes.Value()),
		Syncs:             a.met.walFsyncs.Value(),
		Checkpoints:       a.met.walCheckpoints.Value(),
		LastCheckpointLSN: a.ckptLSN.Load(),
		Recovery:          a.walRecovery,
	}
}

// WALRecovery reports what startup recovery rebuilt (zero without a WAL).
func (a *Aggregator) WALRecovery() WALRecovery { return a.walRecovery }

// --- checkpoint payload ------------------------------------------------

// ckptFile is the checkpoint payload: the full grouped aggregate state,
// flat (not per shard) so the shard count may change between runs, in the
// wire form a MergeState carries. Sketches travel as their exact binary
// serialisation.
type ckptFile struct {
	RelErr float64      `json:"rel_err"`
	Ext    []GroupState `json:"ext"`
}

func encodeCheckpoint(parts []shardSnap, relErr float64) ([]byte, error) {
	out := ckptFile{RelErr: relErr}
	for _, p := range parts {
		var err error
		if out.Ext, err = appendStates(out.Ext, p.ext); err != nil {
			return nil, err
		}
	}
	return json.Marshal(out)
}

// restoreCheckpoint rebuilds shard state from a checkpoint payload. Runs
// before the shard goroutines start, so direct map access is safe. It sets
// the recovery summary's restored records and skipped node samples: a
// checkpoint an earlier build wrote may hold node groups, whose counts it
// adds up and whose state it drops.
func (a *Aggregator) restoreCheckpoint(payload []byte) error {
	var cf struct {
		ckptFile
		Nodes []struct {
			Count uint64 `json:"count"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(payload, &cf); err != nil {
		return fmt.Errorf("collector: checkpoint decode: %w", err)
	}
	if cf.RelErr != a.cfg.SketchRelErr {
		return fmt.Errorf("collector: checkpoint sketch error %v does not match configured %v",
			cf.RelErr, a.cfg.SketchRelErr)
	}
	rec := &a.walRecovery
	for _, gs := range cf.Ext {
		sh := a.shardFor(gs.City, gs.ISP)
		n, err := mergeGroupState(sh.ext, gs, a.views.Interner())
		if err != nil {
			return fmt.Errorf("collector: checkpoint %w", err)
		}
		sh.met.groups.Set(float64(len(sh.ext)))
		sh.met.accepted.Add(n)
		sh.met.processed.Add(n)
		rec.RestoredRecords += n
	}
	for _, ns := range cf.Nodes {
		rec.SkippedNodeRecords += ns.Count
	}
	return nil
}

// restoreWAL starts the recovery summary and loads the last checkpoint, if
// any, into the shard maps. It runs before the shard goroutines start.
func (a *Aggregator) restoreWAL() error {
	a.walRecovery = WALRecovery{Log: a.wal.Recovery()}
	lsn, payload, err := wal.LoadCheckpoint(a.cfg.WAL.FS, a.cfg.WAL.Dir)
	switch {
	case err == nil:
		if err := a.restoreCheckpoint(payload); err != nil {
			return err
		}
		a.walRecovery.CheckpointLSN = lsn
		a.ckptLSN.Store(lsn)
	case errors.Is(err, wal.ErrNoCheckpoint):
		// Cold start: full replay from LSN 0.
	default:
		return err
	}
	return nil
}

// replayWindow bounds the views replay has handed to the shards and they
// have not all applied yet. With the replay ring's slots (replayPipe) at
// most replayWindow plus the slots are live however long the log. On
// 2 vCPUs with the parse workers in place, recover_cold at seed 1 took a
// median 127 ms per op with one view in the window and 121 ms with two
// (two faster in 6 of 7 pairs), though one allocated 5 % less; four took
// 121 ms and allocated 7 % more than two.
const replayWindow = 2

// replayWAL replays the log tail after the checkpoint through the running
// shards' queues, then waits until every shard has applied all of it.
func (a *Aggregator) replayWAL() error {
	a.window = make(chan struct{}, replayWindow)
	p := a.startReplay()
	err := a.wal.Replay(a.walRecovery.CheckpointLSN, p.read)
	if err == nil {
		p.flush()
	}
	p.stop()
	if err != nil {
		return fmt.Errorf("collector: wal replay: %w", err)
	}
	a.awaitReplay()
	return nil
}

// replayPipe is replay's ordered pipeline. The reader, the wal.Replay
// callback, copies each logged record once into the next slot of a fixed
// ring, straight into a pooled view's buffer, and queues the slot for the
// parse workers, which run readRecord on it. Before it reuses a slot it
// sequences the record there, the oldest one held: it waits for that
// record's verdict, adds its skips and hands its rows to the shards. So the
// shards get every record in log order while up to a ring's worth of
// records parse at once.
type replayPipe struct {
	a     *Aggregator
	slots []replaySlot
	// head and tail count the records read into the ring and sequenced
	// out of it: slot i%len(slots) holds record i for tail <= i < head.
	head, tail uint64
	// todo queues filled slots for the workers. It holds one per slot, so
	// the reader never blocks on it: a slot is queued again only after the
	// sequencer has waited for its parse.
	todo chan *replaySlot
	wg   sync.WaitGroup
}

// replaySlot holds one logged record between the reader and the
// sequencer. The reader fills view with the record's payload; a worker
// replaces it with readRecord's verdict, the rows to apply (nil if none)
// and the skips, and signals parsed.
type replaySlot struct {
	kind   byte
	view   *dataset.BatchView
	skips  WALSkips
	parsed chan struct{}
}

// startReplay starts GOMAXPROCS parse workers (Config.replayWorkers in
// tests) and allocates the ring, one slot more than there are workers so
// the reader has a slot to fill while every worker parses. One slot fewer
// recovered about 10 % slower on 2 vCPUs.
func (a *Aggregator) startReplay() *replayPipe {
	workers := a.cfg.replayWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &replayPipe{a: a, slots: make([]replaySlot, workers+1), todo: make(chan *replaySlot, workers+1)}
	for i := range p.slots {
		p.slots[i].parsed = make(chan struct{}, 1)
	}
	p.wg.Add(workers)
	for range workers {
		go p.parse()
	}
	return p
}

// parse is one worker: it reads each queued record through the
// aggregator's pool, which interns through the same table the live ingest
// handlers share.
func (p *replayPipe) parse() {
	defer p.wg.Done()
	for s := range p.todo {
		s.view, s.skips = readRecord(&p.a.views, s.kind, s.view)
		s.parsed <- struct{}{}
	}
}

// read takes the next logged record into the ring, first sequencing the
// record whose slot it reuses.
func (p *replayPipe) read(r wal.Rec) error {
	if p.head-p.tail == uint64(len(p.slots)) {
		p.sequence()
	}
	s := &p.slots[p.head%uint64(len(p.slots))]
	p.head++
	p.a.ringPeak = max(p.a.ringPeak, int(p.head-p.tail))
	s.kind = r.Kind
	s.view = p.a.views.Fill(r.Payload)
	p.todo <- s
	return nil
}

// flush sequences every record still in the ring, oldest first.
func (p *replayPipe) flush() {
	for p.tail < p.head {
		p.sequence()
	}
}

// sequence hands the oldest record in the ring to the shards once its
// worker has read it, and adds what it skipped.
func (p *replayPipe) sequence() {
	s := &p.slots[p.tail%uint64(len(p.slots))]
	p.tail++
	<-s.parsed
	v := s.view
	s.view = nil
	p.a.walRecovery.Add(s.skips)
	if v != nil {
		p.a.replayView(v)
	}
}

// stop ends the workers once they have parsed what is queued, and returns
// to the pool every view the ring still holds, which only a failed read
// leaves there.
func (p *replayPipe) stop() {
	close(p.todo)
	p.wg.Wait()
	for ; p.tail < p.head; p.tail++ {
		if s := &p.slots[p.tail%uint64(len(p.slots))]; s.view != nil {
			p.a.views.Put(s.view)
			s.view = nil
		}
	}
}

// replayView hands one recovered view, which has rows, to the shards
// through the live path's enqueueView, once the replay window has room for
// it: the view goes back to the pool, and its token to the window, when the
// last shard has applied its rows.
func (a *Aggregator) replayView(v *dataset.BatchView) {
	n := v.Len()
	a.window <- struct{}{}
	a.windowPeak = max(a.windowPeak, len(a.window))
	a.enqueueView(v, trace.SpanContext{})
	a.walRecovery.ReplayedRecords += uint64(n)
}

// awaitReplay queues a mark behind everything replay enqueued, on every
// shard, and returns once each shard has passed it. Each shard applied, and
// released, every replayed slice before its mark, so by then every view's
// last done has put its window token back, and the window closes for good.
func (a *Aggregator) awaitReplay() {
	a.mark(false).passed.Wait()
	a.window = nil
}

// Checkpoint persists a shard-snapshot checkpoint and prunes fully-covered
// segments. Intake pauses (offers block on the aggregator lock) while a
// mark queued behind every appended record reaches each shard, which
// captures itself there, so the snapshot matches the log position exactly.
func (a *Aggregator) Checkpoint() error {
	if a.wal == nil {
		return ErrNoWAL
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("collector: checkpoint after close")
	}
	m := a.mark(true)
	m.passed.Wait()
	return a.writeCheckpointLocked(m.snaps)
}

// writeCheckpointLocked syncs the log, persists the snapshot at the synced
// position, and prunes covered segments.
func (a *Aggregator) writeCheckpointLocked(parts []shardSnap) error {
	lsn := a.wal.AppendedLSN()
	if err := a.wal.Sync(); err != nil {
		return err
	}
	payload, err := encodeCheckpoint(parts, a.cfg.SketchRelErr)
	if err != nil {
		return err
	}
	if err := wal.SaveCheckpoint(a.cfg.WAL.FS, a.cfg.WAL.Dir, lsn, payload); err != nil {
		return err
	}
	a.met.walCheckpoints.Inc()
	a.ckptLSN.Store(lsn)
	return a.wal.Prune(lsn)
}

func (a *Aggregator) checkpointLoop() {
	defer close(a.ckptDone)
	t := time.NewTicker(a.cfg.WAL.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Best effort: a failed periodic checkpoint only means a
			// longer replay; the next tick (and Close) retry.
			_ = a.Checkpoint()
		case <-a.ckptStop:
			return
		}
	}
}
