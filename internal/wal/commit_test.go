package wal

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestCommitSpacing drives a positive FsyncInterval at saturation: eight
// committers append and commit back to back, so a window is always wanted.
// The interval bounds how often windows open — at most one per interval,
// plus the slack of K windows in flight and the first window — and every
// acked record must replay.
func TestCommitSpacing(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("windows=%d", k), func(t *testing.T) {
			const interval = 2 * time.Millisecond
			const workers, each = 8, 40
			dir := t.TempDir()
			start := time.Now()
			w, err := Open(Config{Dir: dir, FsyncInterval: interval, MaxSyncWindows: k})
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				go func(g int) {
					for i := 0; i < each; i++ {
						lsn, err := w.Append(1, testPayload(g*each+i, float64(i)))
						if err == nil {
							err = w.Commit(lsn)
						}
						if err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}(g)
			}
			for g := 0; g < workers; g++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			st := w.Stats()
			elapsed := time.Since(start)
			if st.DurableLSN != workers*each {
				t.Fatalf("stats %+v", st)
			}
			if limit := uint64(elapsed/interval) + uint64(k) + 1; st.Syncs > limit {
				t.Fatalf("%d fsyncs in %v at a %v interval (limit %d)", st.Syncs, elapsed, interval, limit)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rw, recs := replayAll(t, dir)
			defer rw.Close()
			if len(recs) != workers*each {
				t.Fatalf("recovered %d records, want %d", len(recs), workers*each)
			}
		})
	}
}

// TestIdleCommitSyncsAtOnce: on an idle log the first Commit opens its
// window at once, whatever the interval — an hour here, so waiting for the
// interval would trip the guard.
func TestIdleCommitSyncsAtOnce(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir(), FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		lsn, err := w.Append(1, testPayload(1, 1))
		if err == nil {
			err = w.Commit(lsn)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle Commit still waiting after 10 s")
	}
	if st := w.Stats(); st.DurableLSN != 1 || st.Syncs != 1 {
		t.Fatalf("stats %+v, want LSN 1 durable by one fsync", st)
	}
}

// TestCloseWakesDeadlineWaiter: a committer waiting out an hour-long
// spacing deadline must not hold up Close; it gets the closed error and
// the spacing timer is stopped.
func TestCloseWakesDeadlineWaiter(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir(), FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(1, testPayload(1, 1))
	if err == nil {
		err = w.Commit(lsn) // opens the first window; the next is an hour off
	}
	if err != nil {
		t.Fatal(err)
	}
	lsn, err = w.Append(1, testPayload(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Commit(lsn) }()
	// The committer arms the spacing timer before it sleeps.
	guard := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		armed := w.timer != nil
		w.mu.Unlock()
		if armed {
			break
		}
		if time.Now().After(guard) {
			t.Fatal("committer never waited for the deadline")
		}
		runtime.Gosched()
	}
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked by a committer waiting for the deadline")
	}
	select {
	case err := <-done:
		if !errors.Is(err, errClosedBeforeCommit) {
			t.Fatalf("waiting committer got %v, want the closed error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting committer not released by Close")
	}
	if w.timer.Stop() {
		t.Fatal("spacing timer still armed after Close")
	}
}
