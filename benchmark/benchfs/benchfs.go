// Package benchfs is the benchmark's WAL device: a wal.FS that delegates to
// wal.OSFS and counts what crosses it — writes, bytes, syncs and the wall
// time spent inside Sync — so the per-layer trace can report the device's
// share of an ack without any hook in internal/wal.
//
// The device directory is tmpfs when the box has one. The sandbox's ext4
// image swings durable throughput by ±15% between identical runs (sys time
// three times user: the device, not the program), which would drown every
// number the benchmark is meant to resolve; on tmpfs the same path repeats
// within a few percent.
package benchfs

import (
	"io"
	"os"
	"sync/atomic"
	"time"

	"starlinkview/internal/wal"
)

// Counts is a snapshot of what has crossed the device.
type Counts struct {
	Writes   int64 // File.Write calls
	Bytes    int64 // bytes written
	Syncs    int64 // File.Sync + SyncDir calls
	SyncWait time.Duration
}

// Sub returns c - o, the traffic between two snapshots.
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		Writes:   c.Writes - o.Writes,
		Bytes:    c.Bytes - o.Bytes,
		Syncs:    c.Syncs - o.Syncs,
		SyncWait: c.SyncWait - o.SyncWait,
	}
}

// FS counts the traffic of the wal.FS it wraps. Safe for concurrent use.
type FS struct {
	base     wal.FS
	writes   atomic.Int64
	bytes    atomic.Int64
	syncs    atomic.Int64
	syncWait atomic.Int64
}

// New wraps base (wal.OSFS in the benchmark, a scripted fake in tests).
func New(base wal.FS) *FS { return &FS{base: base} }

// Counts returns the totals so far.
func (f *FS) Counts() Counts {
	return Counts{
		Writes:   f.writes.Load(),
		Bytes:    f.bytes.Load(),
		Syncs:    f.syncs.Load(),
		SyncWait: time.Duration(f.syncWait.Load()),
	}
}

func (f *FS) timeSync(sync func() error) error {
	start := time.Now()
	err := sync()
	f.syncWait.Add(int64(time.Since(start)))
	f.syncs.Add(1)
	return err
}

type file struct {
	wal.File
	fs *FS
}

func (w file) Write(p []byte) (int, error) {
	n, err := w.File.Write(p)
	w.fs.writes.Add(1)
	w.fs.bytes.Add(int64(n))
	return n, err
}

func (w file) Sync() error { return w.fs.timeSync(w.File.Sync) }

func (f *FS) Create(name string) (wal.File, error) {
	inner, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return file{inner, f}, nil
}

func (f *FS) OpenAppend(name string) (wal.File, error) {
	inner, err := f.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return file{inner, f}, nil
}

func (f *FS) SyncDir(dir string) error {
	return f.timeSync(func() error { return f.base.SyncDir(dir) })
}

func (f *FS) Open(name string) (io.ReadCloser, error) { return f.base.Open(name) }
func (f *FS) ReadDir(dir string) ([]string, error)    { return f.base.ReadDir(dir) }
func (f *FS) Rename(oldpath, newpath string) error    { return f.base.Rename(oldpath, newpath) }
func (f *FS) Remove(name string) error                { return f.base.Remove(name) }
func (f *FS) Truncate(name string, size int64) error  { return f.base.Truncate(name, size) }
func (f *FS) Size(name string) (int64, error)         { return f.base.Size(name) }
func (f *FS) MkdirAll(dir string) error               { return f.base.MkdirAll(dir) }

// Device is where the benchmark keeps its WAL directories.
type Device struct {
	// Dir is a fresh, empty directory; Remove deletes it.
	Dir string
	// Kind is "tmpfs" when Dir is under /dev/shm and "disk" otherwise; with
	// "disk" the durable-ingest numbers are the sandbox disk's, not the
	// program's.
	Kind string
}

// OpenDevice makes a fresh directory on tmpfs, or under fallback when the
// box has no usable /dev/shm.
func OpenDevice(fallback string) (Device, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "slvbench-"); err == nil {
		return Device{Dir: dir, Kind: "tmpfs"}, nil
	}
	if err := os.MkdirAll(fallback, 0o755); err != nil {
		return Device{}, err
	}
	dir, err := os.MkdirTemp(fallback, "dev-")
	if err != nil {
		return Device{}, err
	}
	return Device{Dir: dir, Kind: "disk"}, nil
}

// Remove deletes the device directory and everything in it.
func (d Device) Remove() error { return os.RemoveAll(d.Dir) }
