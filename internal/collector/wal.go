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

// WAL record kinds: the payloads reuse the dataset release encodings, so a
// WAL segment is itself a replayable dataset of browsing records, logged as
// batch frames (walKindExtensionBatch, batch.go). Kind 1, one browsing
// record as the CSV row dataset.MarshalExtensionRow emits, is what an
// earlier CSV ingest route logged: nothing writes it now, but recovery, compaction and -wal-dump still read it in older logs. Kind
// 2 is reserved: it held one volunteer-node sample as a JSON line, which
// earlier builds took on a second ingest path. Recovery counts the kind-2
// records of an older log as skipped node samples and applies none.
const (
	walKindExtension byte = 1
	walKindNode      byte = 2
)

// WALKindExtension is the kind-1 record kind, exported for offline log
// consumers — cluster compaction rereads sealed segments with it to turn
// cold WAL data back into release-format datasets.
const WALKindExtension = walKindExtension

// DecodeWALExtension parses a walKindExtension payload (one dataset CSV
// row) back into the record it logged.
func DecodeWALExtension(payload []byte) (extension.Record, error) {
	cr := csv.NewReader(bytes.NewReader(payload))
	cr.FieldsPerRecord = len(dataset.ExtensionHeader())
	row, err := cr.Read()
	if err != nil {
		return extension.Record{}, fmt.Errorf("collector: wal row: %w", err)
	}
	return dataset.UnmarshalExtensionRow(row)
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
	// SkippedCorrupt counts tail records whose payloads failed to decode,
	// and records whose PTT ingest would refuse (which a log written before
	// it did may hold); replay skips and counts them, it never gives up.
	SkippedCorrupt uint64 `json:"skipped_corrupt"`
	// SkippedNodeRecords counts the volunteer-node samples an earlier build
	// logged or checkpointed: the count of each node group in the
	// checkpoint plus each kind-2 record in the tail. None is applied.
	SkippedNodeRecords uint64 `json:"skipped_node_records,omitempty"`
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
// ring, a batch frame straight into a pooled view's buffer, and queues the
// view for the parse workers. Before it reuses a slot it sequences the
// record there, the oldest one held: it waits for that record's parse and
// hands the view to the shards (replayParsed). So the shards get every
// record in log order while up to a ring's worth of frames parse at once.
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
	enc  dataset.BatchEncoder
}

// replaySlot holds one logged record between the reader and the
// sequencer. A batch frame's view is filled by the reader and parsed by a
// worker, which signals parsed (and leaves view nil if the frame did not
// parse); a kind-1 row is copied into row, whose buffer the slot keeps.
type replaySlot struct {
	kind   byte
	view   *dataset.BatchView
	row    []byte
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

// parse is one worker: it parses each queued frame in place through the
// aggregator's pool, which interns through the same table the live ingest
// handlers share.
func (p *replayPipe) parse() {
	defer p.wg.Done()
	for s := range p.todo {
		if err := p.a.views.ParseFilled(s.view); err != nil {
			s.view = nil
		}
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
	switch r.Kind {
	case walKindExtensionBatch:
		s.view = p.a.views.Fill(r.Payload)
		p.todo <- s
	case walKindExtension:
		s.row = append(s.row[:0], r.Payload...)
	}
	return nil
}

// flush sequences every record still in the ring, oldest first.
func (p *replayPipe) flush() {
	for p.tail < p.head {
		p.sequence()
	}
}

// sequence hands the oldest record in the ring to the shards: a batch
// frame once its worker has parsed it, any other record through
// replayRecord.
func (p *replayPipe) sequence() {
	s := &p.slots[p.tail%uint64(len(p.slots))]
	p.tail++
	if s.kind != walKindExtensionBatch {
		p.a.replayRecord(wal.Rec{Kind: s.kind, Payload: s.row}, &p.enc)
		return
	}
	<-s.parsed
	v := s.view
	s.view = nil
	p.a.replayParsed(v)
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

// replayParsed hands one parsed batch frame to the shards, or counts it:
// a frame that failed to parse (v nil) counts once as corrupt, a frame's
// rows whose PTT ingest would refuse (which a log written before ingest
// bounded PTTs may hold) count one each and the rest replay.
func (a *Aggregator) replayParsed(v *dataset.BatchView) {
	rec := &a.walRecovery
	if v == nil {
		rec.SkippedCorrupt++
		return
	}
	v, dropped := a.validRows(v)
	rec.SkippedCorrupt += uint64(dropped)
	if v != nil {
		a.replayView(v)
	}
}

// replayRecord hands one logged record that is not a batch frame to the
// shards. A kind-1 row replays as a one-row view, encoded with enc, so
// every browsing record reaches the shards the way live ingest delivers it;
// a row that does not decode, or whose PTT ingest would refuse, is skipped
// and counted, never fatal. A kind-2 record, a node sample an earlier build
// logged, is counted as a skipped node sample without being decoded, and a
// record of any other kind as corrupt.
func (a *Aggregator) replayRecord(r wal.Rec, enc *dataset.BatchEncoder) {
	rec := &a.walRecovery
	switch r.Kind {
	case walKindExtension:
		row, err := DecodeWALExtension(r.Payload)
		if err != nil || !validPTT(row.PTTMs) {
			rec.SkippedCorrupt++
			return
		}
		v, err := a.views.Parse(enc.Encode([]extension.Record{row}))
		if err != nil {
			rec.SkippedCorrupt++
			return
		}
		a.replayView(v)
	case walKindNode:
		rec.SkippedNodeRecords++
	default:
		rec.SkippedCorrupt++
	}
}

// replayView hands one recovered frame to the shards through the live path's
// enqueueView, once the replay window has room for it: the view goes back
// to the pool, and its token to the window, when the last shard has applied
// its rows.
func (a *Aggregator) replayView(v *dataset.BatchView) {
	n := v.Len()
	if n == 0 {
		a.views.Put(v)
		return
	}
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
