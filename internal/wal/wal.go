// Package wal is collectord's durability layer: a segmented, CRC32C-checked
// write-ahead log with batched group commit, plus atomic checkpoints so
// recovery replays only the log tail written since the last snapshot.
//
// Records are opaque (kind, payload) pairs framed as
//
//	[u32 length][u32 CRC32C][u64 LSN][u8 kind][payload]
//
// with the CRC covering LSN, kind and payload. LSNs are assigned
// contiguously from 1, segments are named by the first LSN they hold and
// rotate at a size threshold, and a torn tail — the partial frame a crash
// leaves behind — is detected by the CRC and truncated on open. The
// collector stores extension records in their dataset CSV row encoding, so
// a WAL segment doubles as a replayable dataset (see cmd/collectord
// -wal-dump).
//
// Durability contract: Append buffers; a record is durable only once Commit
// (or Sync) has returned for its LSN. Any write or sync failure poisons the
// writer permanently — after an IO error nothing further is acknowledged.
//
// Commit is pipelined group commit with no background goroutine: an fsync
// runs as a "commit window" covering every record appended before it
// started, opened by the first committer that finds its LSN uncovered, and
// the window's fsync happens outside the writer lock, so appends for window
// N+1 proceed while window N's fsync is in flight and every committer they
// cover shares it. MaxSyncWindows allows up to K windows' fsyncs
// concurrently; completions are released strictly in FIFO order, so durable
// (and thus every ack) only advances to an LSN once every earlier window has
// landed — append-before-ack is preserved whatever order the kernel
// finishes fsyncs. A positive FsyncInterval spaces windows at most one per
// interval on a fixed grid: an idle writer's commit opens its window at
// once, and under saturation committers wait for the next grid deadline.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".seg"
	// segmentHeaderLen bytes of magic open every segment file.
	segmentHeaderLen = 8
	// frameHeaderLen is the length+CRC preamble of every frame.
	frameHeaderLen = 8
	// frameFixedLen is the LSN+kind portion counted inside a frame's length.
	frameFixedLen = 9
	// MaxPayload bounds a single record; longer appends are rejected and
	// longer on-disk lengths are treated as corruption.
	MaxPayload = 8 << 20

	// DefaultSegmentBytes is the rotation threshold when none is given.
	DefaultSegmentBytes = 64 << 20
)

var segmentMagic = [segmentHeaderLen]byte{'S', 'L', 'W', 'A', 'L', 0, 0, 1}

// castagnoli is the CRC32C polynomial table (hardware-accelerated on amd64
// and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Instrumentation is the WAL's observation hook: the package stays free of
// any metrics dependency, and a caller that wants Prometheus series (the
// collector does) supplies callbacks. Every field is optional. Hooks run
// with the writer's mutex held, so they must be fast and non-blocking —
// an atomic counter add, not an RPC.
type Instrumentation struct {
	// Append runs per appended record with the framed size in bytes.
	Append func(bytes int)
	// Sync runs per fsync with its duration and the number of records the
	// sync made durable (the group-commit batch size).
	Sync func(d time.Duration, records uint64)
	// Rotate runs per segment rotation (not for the initial segment).
	Rotate func()
	// CommitWait runs per Commit call with how long the caller blocked for
	// durability — under group commit, the fsync wait each acknowledged
	// batch actually paid.
	CommitWait func(d time.Duration)
}

// Config parameterises a Writer.
type Config struct {
	// Dir is the WAL directory; it is created if missing.
	Dir string
	// SegmentBytes rotates segments once they exceed this size
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// FsyncInterval spaces commit windows: at most one opens per interval,
	// on a fixed grid, so a busy log shares each fsync among more commits.
	// Zero opens a window whenever a committer needs one. A Commit on an
	// idle log fsyncs at once whatever the interval.
	FsyncInterval time.Duration
	// FS overrides the filesystem (default OSFS); tests inject faults here.
	FS FS
	// Instr receives write-path events; zero-valued means unobserved.
	Instr Instrumentation
	// MaxSyncWindows is the number of commit windows whose fsyncs may be in
	// flight concurrently (default 1). Even at 1 the commit path pipelines —
	// the fsync runs outside the writer lock, so appends proceed under it —
	// but K>1 lets a second window start syncing before the first lands.
	// Acks are always released in order; see the package comment.
	MaxSyncWindows int
}

func (c *Config) normalize() error {
	if c.Dir == "" {
		return errors.New("wal: Dir is required")
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.SegmentBytes < segmentHeaderLen+frameHeaderLen+frameFixedLen {
		return fmt.Errorf("wal: SegmentBytes %d too small", c.SegmentBytes)
	}
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.MaxSyncWindows <= 0 {
		c.MaxSyncWindows = 1
	}
	return nil
}

// Rec is one logged record.
type Rec struct {
	LSN     uint64
	Kind    byte
	Payload []byte
}

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	// Segments is the number of live segment files after recovery.
	Segments int
	// Records is the number of valid frames across them.
	Records uint64
	// FirstLSN/LastLSN bound the recovered log (0/0 when empty).
	FirstLSN uint64
	LastLSN  uint64
	// TornBytes were truncated from the first torn segment.
	TornBytes int64
	// RemovedSegments were discarded because they followed a tear and so
	// could not be durably ordered after it.
	RemovedSegments int
}

// WriterStats is a point-in-time view of the writer's progress.
type WriterStats struct {
	AppendedLSN   uint64 `json:"appended_lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	Segments      int    `json:"segments"`
	AppendedBytes int64  `json:"appended_bytes"`
	Syncs         uint64 `json:"syncs"`
}

// segment is one live log file.
type segment struct {
	base uint64 // first LSN it holds
	last uint64 // last LSN it holds (base-1 when empty)
	size int64  // valid bytes (header + intact frames)
}

func segmentName(base uint64) string {
	return fmt.Sprintf("%s%020d%s", segmentPrefix, base, segmentSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
	if len(mid) != 20 {
		return 0, false
	}
	var base uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		base = base*10 + uint64(c-'0')
	}
	return base, true
}

// Writer is the append side of the log. It is safe for concurrent use; all
// appenders serialise on one mutex and share group-commit fsyncs.
type Writer struct {
	cfg Config
	fs  FS

	mu       sync.Mutex
	cond     *sync.Cond // signalled when durable advances, a window lands, or err is set
	f        File       // active segment
	bw       *bufio.Writer
	segs     []segment // all live segments; last is active
	nextLSN  uint64    // LSN the next Append receives
	durable  uint64    // highest fsynced LSN
	appended int64     // total frame bytes appended this process
	syncs    uint64
	err      error // sticky: first IO failure, poisons the writer
	closed   bool

	// Pipelined commit windows, oldest first. inFlight counts windows whose
	// fsync has not returned; released (done) windows are popped in FIFO
	// order by releaseWindowsLocked, so inFlight == 0 implies the queue is
	// empty and durable == the last window's LSN.
	windows  []*syncWindow
	inFlight int

	// next is the earliest time the next window may open under a positive
	// FsyncInterval; timer wakes the committers waiting for it.
	next  time.Time
	timer *time.Timer

	recovery RecoveryStats
}

// syncWindow is one in-flight commit window: every record up to lsn was
// flushed to file f before the window opened, and the window lands when f's
// fsync returns.
type syncWindow struct {
	lsn   uint64
	f     File
	start time.Time
	done  bool
	err   error
}

// Open recovers the log in cfg.Dir — validating every frame, truncating the
// torn tail a crash may have left, and discarding segments stranded behind a
// tear — then readies it for appends continuing at the next LSN.
func Open(cfg Config) (*Writer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	fsys := cfg.FS
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	w := &Writer{cfg: cfg, fs: fsys, nextLSN: 1}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	if len(w.segs) == 0 {
		if err := w.createSegment(w.nextLSN); err != nil {
			return nil, err
		}
	} else {
		active := w.segs[len(w.segs)-1]
		f, err := fsys.OpenAppend(filepath.Join(cfg.Dir, segmentName(active.base)))
		if err != nil {
			return nil, fmt.Errorf("wal: reopen active segment: %w", err)
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, 1<<16)
	}
	// Everything recovered is on disk already.
	w.durable = w.nextLSN - 1
	return w, nil
}

// recover scans segments in LSN order, verifying continuity and frame
// integrity, repairing the tail in place.
func (w *Writer) recover() error {
	names, err := w.fs.ReadDir(w.cfg.Dir)
	if err != nil {
		return fmt.Errorf("wal: readdir: %w", err)
	}
	var bases []uint64
	for _, n := range names {
		if base, ok := parseSegmentName(n); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	torn := false // once a tear is seen, later segments are discarded
	for i, base := range bases {
		path := filepath.Join(w.cfg.Dir, segmentName(base))
		if torn {
			if err := w.fs.Remove(path); err != nil {
				return fmt.Errorf("wal: remove stranded segment: %w", err)
			}
			w.recovery.RemovedSegments++
			continue
		}
		if i > 0 && base != w.nextLSN {
			// A gap or overlap between segments: everything from here on
			// cannot be ordered after the previous segment's tail.
			torn = true
			if err := w.fs.Remove(path); err != nil {
				return fmt.Errorf("wal: remove stranded segment: %w", err)
			}
			w.recovery.RemovedSegments++
			continue
		}
		seg, tornAt, scanErr := w.scanSegment(path, base)
		if scanErr != nil {
			return scanErr
		}
		if tornAt >= 0 {
			torn = true
			size, err := w.fs.Size(path)
			if err != nil {
				return fmt.Errorf("wal: stat torn segment: %w", err)
			}
			if tornAt < segmentHeaderLen {
				// Not even a whole header: the crash interrupted segment
				// creation and nothing in the file is meaningful.
				if err := w.fs.Remove(path); err != nil {
					return fmt.Errorf("wal: remove torn segment: %w", err)
				}
				w.recovery.TornBytes += size
				w.recovery.RemovedSegments++
				continue
			}
			w.recovery.TornBytes += size - tornAt
			if err := w.fs.Truncate(path, tornAt); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		w.segs = append(w.segs, seg)
		w.recovery.Records += seg.last - seg.base + 1
		w.nextLSN = seg.last + 1
	}
	// Drop empty trailing segments left by a crash mid-rotation, so the
	// active segment is always the one holding the highest LSN.
	for len(w.segs) > 0 {
		tail := w.segs[len(w.segs)-1]
		if tail.last >= tail.base {
			break
		}
		if err := w.fs.Remove(filepath.Join(w.cfg.Dir, segmentName(tail.base))); err != nil {
			return fmt.Errorf("wal: remove empty segment: %w", err)
		}
		w.segs = w.segs[:len(w.segs)-1]
	}
	w.recovery.Segments = len(w.segs)
	if len(w.segs) > 0 {
		w.recovery.FirstLSN = w.segs[0].base
		w.recovery.LastLSN = w.nextLSN - 1
	}
	return nil
}

// scanSegment validates one segment file. tornAt is -1 when the file is
// fully intact, otherwise the byte offset where valid data ends.
func (w *Writer) scanSegment(path string, base uint64) (segment, int64, error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return segment{}, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	seg := segment{base: base, last: base - 1}
	expect := base
	off, readErr := ReadSegment(f, func(r Rec) error {
		if r.LSN != expect {
			return fmt.Errorf("lsn %d where %d expected", r.LSN, expect)
		}
		expect++
		seg.last = r.LSN
		return nil
	})
	seg.size = off
	if readErr != nil {
		// Frame-level damage (torn tail, CRC, LSN discontinuity): the
		// prefix up to off survives.
		return seg, off, nil
	}
	return seg, -1, nil
}

// Recovery returns what Open found and repaired.
func (w *Writer) Recovery() RecoveryStats { return w.recovery }

// ReadSegment iterates the intact frames of one segment stream, calling fn
// for each. It returns the byte offset of the end of valid data and a nil
// error on a clean EOF, or a non-nil error describing the first damage
// (torn frame, CRC mismatch, bogus length, bad header) — never a panic,
// whatever the input. A non-nil error from fn aborts iteration and is
// returned verbatim.
func ReadSegment(r io.Reader, fn func(Rec) error) (int64, error) {
	var hdr [segmentHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: short segment header: %w", err)
	}
	if hdr != segmentMagic {
		return 0, errors.New("wal: bad segment magic")
	}
	off := int64(segmentHeaderLen)
	var fh [frameHeaderLen]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			if err == io.EOF {
				return off, nil // clean end
			}
			return off, fmt.Errorf("wal: torn frame header at %d: %w", off, err)
		}
		length := binary.LittleEndian.Uint32(fh[0:4])
		crc := binary.LittleEndian.Uint32(fh[4:8])
		if length < frameFixedLen || length > frameFixedLen+MaxPayload {
			return off, fmt.Errorf("wal: implausible frame length %d at %d", length, off)
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return off, fmt.Errorf("wal: torn frame body at %d: %w", off, err)
		}
		if crc32.Checksum(body, castagnoli) != crc {
			return off, fmt.Errorf("wal: CRC mismatch at %d", off)
		}
		rec := Rec{
			LSN:     binary.LittleEndian.Uint64(body[0:8]),
			Kind:    body[8],
			Payload: body[frameFixedLen:],
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += frameHeaderLen + int64(length)
	}
}

// Replay iterates every recovered record with LSN > after, in order. It must
// run before the first Append (the collector replays during startup). The
// payload passed to fn is only valid during the call.
func (w *Writer) Replay(after uint64, fn func(Rec) error) error {
	w.mu.Lock()
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	for _, seg := range segs {
		if seg.last < seg.base || seg.last <= after {
			continue
		}
		if err := w.replaySegment(seg, after, fn); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) replaySegment(seg segment, after uint64, fn func(Rec) error) error {
	f, err := w.fs.Open(filepath.Join(w.cfg.Dir, segmentName(seg.base)))
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	n := int64(0)
	_, err = ReadSegment(f, func(r Rec) error {
		n++
		if r.LSN <= after || r.LSN > seg.last {
			return nil
		}
		return fn(r)
	})
	return err
}

// ReplayDir is the read-only replay used outside a live Writer (e.g.
// collectord -wal-dump): it iterates intact frames of every segment in dir
// in LSN order, stopping quietly at the first tear.
func ReplayDir(fsys FS, dir string, after uint64, fn func(Rec) error) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: readdir: %w", err)
	}
	var bases []uint64
	for _, n := range names {
		if base, ok := parseSegmentName(n); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	next := uint64(0)
	for i, base := range bases {
		if i > 0 && base != next {
			return nil // gap: stranded segments beyond a tear
		}
		f, err := fsys.Open(filepath.Join(dir, segmentName(base)))
		if err != nil {
			return fmt.Errorf("wal: open segment: %w", err)
		}
		expect := base
		var cbErr error
		_, readErr := ReadSegment(f, func(r Rec) error {
			if r.LSN != expect {
				return errStopReplay
			}
			expect++
			if r.LSN <= after {
				return nil
			}
			if err := fn(r); err != nil {
				cbErr = err
				return errStopReplay
			}
			return nil
		})
		f.Close()
		if cbErr != nil {
			return cbErr
		}
		if readErr != nil {
			return nil // tear: the valid prefix has been delivered
		}
		next = expect
	}
	return nil
}

var errStopReplay = errors.New("wal: stop replay")

// Append logs one record and returns its LSN. The record is buffered — not
// yet durable; call Commit with the returned LSN (or any later one) before
// acknowledging it.
func (w *Writer) Append(kind byte, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("wal: closed")
	}
	frameLen := int64(frameHeaderLen + frameFixedLen + len(payload))
	active := &w.segs[len(w.segs)-1]
	if active.size+frameLen > w.cfg.SegmentBytes && active.size > segmentHeaderLen {
		if err := w.rotateLocked(frameLen); err != nil {
			return 0, err
		}
		active = &w.segs[len(w.segs)-1]
	}
	lsn := w.nextLSN
	var hdr [frameHeaderLen + frameFixedLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(frameFixedLen+len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	hdr[16] = kind
	crc := crc32.Checksum(hdr[8:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return 0, w.fail(err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, w.fail(err)
	}
	w.nextLSN++
	active.last = lsn
	active.size += frameLen
	w.appended += frameLen
	if w.cfg.Instr.Append != nil {
		w.cfg.Instr.Append(int(frameLen))
	}
	return lsn, nil
}

// rotateLocked seals the active segment (flush + fsync) and starts the
// next. In-flight commit windows reference the file about to be closed, so
// rotation first drains the window queue — releasing mu while it waits —
// and then re-checks whether rotation is still warranted, since other
// appenders may have run (or rotated) in the meantime.
func (w *Writer) rotateLocked(frameLen int64) error {
	for w.inFlight > 0 && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("wal: closed")
	}
	active := &w.segs[len(w.segs)-1]
	if active.size+frameLen <= w.cfg.SegmentBytes || active.size <= segmentHeaderLen {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	if w.cfg.Instr.Rotate != nil {
		w.cfg.Instr.Rotate()
	}
	return w.createSegment(w.nextLSN)
}

// createSegment makes segment base the active one. Callers hold mu (or are
// single-threaded in Open).
func (w *Writer) createSegment(base uint64) error {
	path := filepath.Join(w.cfg.Dir, segmentName(base))
	f, err := w.fs.Create(path)
	if err != nil {
		return w.fail(fmt.Errorf("wal: create segment: %w", err))
	}
	if _, err := f.Write(segmentMagic[:]); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("wal: segment header: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("wal: segment header sync: %w", err))
	}
	if err := w.fs.SyncDir(w.cfg.Dir); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("wal: dir sync: %w", err))
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.segs = append(w.segs, segment{base: base, last: base - 1, size: segmentHeaderLen})
	return nil
}

// Commit makes every record up to lsn durable, driving a commit window
// itself when none covers lsn — waiting for a free window slot when
// MaxSyncWindows are already in flight, for the in-flight window that
// covers lsn, or for the FsyncInterval spacing deadline. It returns the
// writer's sticky error if durability can no longer be promised.
func (w *Writer) Commit(lsn uint64) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cfg.Instr.CommitWait != nil {
		defer func() { w.cfg.Instr.CommitWait(time.Since(start)) }()
	}
	for {
		if w.err != nil {
			return w.err
		}
		if w.durable >= lsn {
			return nil
		}
		if w.closed {
			return errClosedBeforeCommit
		}
		if w.windowedLocked() >= lsn || w.inFlight >= w.cfg.MaxSyncWindows {
			// Either a window already covers lsn (just await its
			// release) or all K slots are busy; sleep until a window
			// lands, then re-decide.
			w.cond.Wait()
			continue
		}
		if w.cfg.FsyncInterval > 0 {
			if wait := time.Until(w.next); wait > 0 {
				// Too soon after the last window: sleep until the
				// deadline. A Close meanwhile fails the commit, though
				// Close's own fsync covers lsn: it was not acked in time.
				if w.timer == nil {
					w.timer = time.AfterFunc(wait, w.wake)
				} else {
					w.timer.Reset(wait)
				}
				w.cond.Wait()
				if w.closed && w.err == nil {
					return errClosedBeforeCommit
				}
				continue
			}
		}
		win, err := w.startWindowLocked()
		if err != nil {
			return err
		}
		w.mu.Unlock()
		w.completeWindow(win)
		w.mu.Lock()
	}
}

var errClosedBeforeCommit = errors.New("wal: closed before commit")

// wake is the spacing timer's callback: the deadline has passed, so the
// committers waiting for it re-decide.
func (w *Writer) wake() {
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Sync forces an immediate flush + fsync of everything appended. It first
// drains in-flight windows so the direct fsync has the file to itself.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inFlight > 0 && w.err == nil {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	return w.syncLocked()
}

// syncLocked is the direct, blocking flush+fsync path. Callers must hold mu
// and have drained the window queue (inFlight == 0), so the advance of
// durable here cannot overtake an unfinished window.
func (w *Writer) syncLocked() error {
	start := time.Now()
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	batch := w.nextLSN - 1 - w.durable
	w.durable = w.nextLSN - 1
	w.syncs++
	if w.cfg.Instr.Sync != nil {
		w.cfg.Instr.Sync(time.Since(start), batch)
	}
	w.cond.Broadcast()
	return nil
}

// windowedLocked is the highest LSN covered by a queued commit window
// (durable when the queue is empty).
func (w *Writer) windowedLocked() uint64 {
	if n := len(w.windows); n > 0 {
		return w.windows[n-1].lsn
	}
	return w.durable
}

// startWindowLocked opens a commit window covering everything appended so
// far: the buffered frames are pushed to the OS now, under mu, so nothing
// appended after this point can leak into the window. The caller runs the
// window's fsync via completeWindow without holding mu.
func (w *Writer) startWindowLocked() (*syncWindow, error) {
	if err := w.bw.Flush(); err != nil {
		return nil, w.fail(err)
	}
	win := &syncWindow{lsn: w.nextLSN - 1, f: w.f, start: time.Now()}
	if iv := w.cfg.FsyncInterval; iv > 0 {
		// The next deadline stays on the grid of the last one, so timer
		// wake-up lag does not build up, unless this window opened a whole
		// interval late.
		if win.start.Sub(w.next) >= iv {
			w.next = win.start
		}
		w.next = w.next.Add(iv)
	}
	w.windows = append(w.windows, win)
	w.inFlight++
	return win, nil
}

// completeWindow runs win's fsync outside the writer lock — this is the
// pipelining: appends (and further window starts, up to MaxSyncWindows)
// proceed while the fsync is in flight — then marks the window done and
// releases the done prefix of the queue.
func (w *Writer) completeWindow(win *syncWindow) {
	err := win.f.Sync()
	w.mu.Lock()
	win.done = true
	win.err = err
	w.inFlight--
	w.releaseWindowsLocked()
	// Wake unconditionally: committers waiting for a slot, rotation/Sync
	// waiting for inFlight == 0, and durability waiters all key off this.
	w.cond.Broadcast()
	w.mu.Unlock()
}

// releaseWindowsLocked pops the done prefix of the window queue in FIFO
// order, advancing durable only when every earlier window has landed. An
// fsync failure in any window poisons the writer before later windows can
// release, so no ack is ever issued across a hole.
func (w *Writer) releaseWindowsLocked() {
	for len(w.windows) > 0 && w.windows[0].done {
		win := w.windows[0]
		w.windows = w.windows[1:]
		if win.err != nil {
			w.fail(win.err)
			continue
		}
		if w.err != nil || win.lsn <= w.durable {
			continue
		}
		batch := win.lsn - w.durable
		w.durable = win.lsn
		w.syncs++
		if w.cfg.Instr.Sync != nil {
			w.cfg.Instr.Sync(time.Since(win.start), batch)
		}
	}
}

// fail records the writer's first IO error and wakes all committers; the
// writer is unusable afterwards. Callers hold mu.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("wal: writer failed: %w", err)
		w.cond.Broadcast()
	}
	return w.err
}

// AppendedLSN returns the highest LSN handed out so far.
func (w *Writer) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// DurableLSN returns the highest fsynced LSN.
func (w *Writer) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Err returns the writer's sticky IO error, nil while the writer is
// healthy. A poisoned writer acknowledges nothing further; the collector's
// /healthz surfaces this state.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats returns the writer's progress counters.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WriterStats{
		AppendedLSN:   w.nextLSN - 1,
		DurableLSN:    w.durable,
		Segments:      len(w.segs),
		AppendedBytes: w.appended,
		Syncs:         w.syncs,
	}
}

// Prune removes segments made redundant by a checkpoint at upto: a segment
// may go once every LSN it holds is <= upto and a later segment exists (the
// active segment always stays). Called after SaveCheckpoint succeeds.
func (w *Writer) Prune(upto uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segs) > 1 && w.segs[0].last <= upto {
		if err := w.fs.Remove(filepath.Join(w.cfg.Dir, segmentName(w.segs[0].base))); err != nil {
			return fmt.Errorf("wal: prune: %w", err)
		}
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := w.fs.SyncDir(w.cfg.Dir); err != nil {
			return fmt.Errorf("wal: prune dir sync: %w", err)
		}
	}
	return nil
}

// Close stops the spacing timer, wakes every waiting committer (one waiting
// for the spacing deadline gets the closed error), drains in-flight commit
// windows, makes everything appended durable, and closes the active
// segment. Further Appends fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.timer != nil {
		w.timer.Stop()
	}
	w.cond.Broadcast()
	for w.inFlight > 0 {
		w.cond.Wait()
	}
	var err error
	if w.err == nil {
		err = w.syncLocked()
	}
	w.cond.Broadcast()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
