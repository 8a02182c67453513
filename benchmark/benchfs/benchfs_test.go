package benchfs

import (
	"os"
	"path/filepath"
	"testing"

	"starlinkview/internal/wal"
)

func TestCountsAScriptedSequence(t *testing.T) {
	dir := t.TempDir()
	fs := New(wal.OSFS{})
	f, err := fs.Create(filepath.Join(dir, "seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"abc", "defgh", ""} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	before := fs.Counts()
	if before.Writes != 3 || before.Bytes != 8 || before.Syncs != 1 {
		t.Errorf("after 3 writes of 8 bytes and a sync: %+v", before)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.OpenAppend(filepath.Join(dir, "seg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("ij")); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	delta := fs.Counts().Sub(before)
	if delta.Writes != 1 || delta.Bytes != 2 || delta.Syncs != 2 {
		t.Errorf("append of 2 bytes, a sync and a dir sync: delta %+v", delta)
	}
	if delta.SyncWait <= 0 {
		t.Errorf("two syncs took %v", delta.SyncWait)
	}
	if size, err := fs.Size(filepath.Join(dir, "seg")); err != nil || size != 10 {
		t.Errorf("file holds %d bytes (%v), wrote 10", size, err)
	}
}

// Every byte a real WAL writer puts on the device is counted: the counted
// bytes are the segment files' sizes.
func TestCountsMatchAWALWriter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	fs := New(wal.OSFS{})
	w, err := wal.Open(wal.Config{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	var lsn uint64
	for i := 0; i < 50; i++ {
		if lsn, err = w.Append(3, payload); err != nil {
			t.Fatal(err)
		}
	}
	syncsBefore := fs.Counts().Syncs
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if fs.Counts().Syncs == syncsBefore {
		t.Error("a commit reached the device without a counted sync")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if got := fs.Counts().Bytes; got != onDisk || got < 50*1000 {
		t.Errorf("counted %d bytes, directory holds %d", got, onDisk)
	}
}

func TestOpenDeviceMakesAFreshDirectory(t *testing.T) {
	dev, err := OpenDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dev.Dir)
	if err != nil || len(ents) != 0 {
		t.Errorf("device dir: %v entries, err %v", len(ents), err)
	}
	if dev.Kind != "tmpfs" && dev.Kind != "disk" {
		t.Errorf("device kind %q", dev.Kind)
	}
	if err := dev.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dev.Dir); !os.IsNotExist(err) {
		t.Errorf("device dir survives Remove: %v", err)
	}
}
