package main

import (
	"sync"
	"testing"
	"time"
)

func TestScheduleIsSeededSortedAndExact(t *testing.T) {
	sched := schedule(time.Second, 200, 10, 7)
	writes, reads := 0, 0
	for i, op := range sched {
		if i > 0 && op.due < sched[i-1].due {
			t.Fatalf("entry %d due %v before entry %d due %v", i, op.due, i-1, sched[i-1].due)
		}
		if op.due < 0 || op.due >= time.Second {
			t.Fatalf("entry %d due %v outside the phase", i, op.due)
		}
		if op.read {
			reads++
		} else {
			writes++
		}
	}
	if writes != 200 || reads != 10 {
		t.Errorf("one second at 200+10/s gave %d writes and %d reads", writes, reads)
	}
	again, other := schedule(time.Second, 200, 10, 7), schedule(time.Second, 200, 10, 8)
	same := true
	for i := range sched {
		if sched[i] != again[i] {
			t.Fatalf("same seed, entry %d differs: %v vs %v", i, sched[i], again[i])
		}
		same = same && sched[i] == other[i]
	}
	if same {
		t.Error("seeds 7 and 8 drew the same arrivals")
	}
}

// evenly is the schedule the stall test needs: an op every interval, so it
// can say which ops fell due inside the stall.
func evenly(d, interval time.Duration) []schedOp {
	var out []schedOp
	for due := time.Duration(0); due < d; due += interval {
		out = append(out, schedOp{due: due})
	}
	return out
}

// stallServer stands in for a server that stops answering for a while: any
// request arriving inside the stall returns only when it ends.
type stallServer struct {
	from, to time.Time
	mu       sync.Mutex
	served   int
}

func (s *stallServer) do(_ int, _ schedOp, _ spanRef) (int, error) {
	if now := time.Now(); now.After(s.from) && now.Before(s.to) {
		time.Sleep(time.Until(s.to))
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	return 1, nil
}

// A 200 ms stall must show in the latency of every op that was due during
// it, not only in the two ops the workers happened to be holding: the open
// loop times from the due time, so it does not omit what the stall delayed.
func TestOpenLoopChargesAStallToEveryOpBehindIt(t *testing.T) {
	const (
		d     = 500 * time.Millisecond
		rate  = 200 // an op every 5 ms
		stall = 200 * time.Millisecond
		limit = 50 * time.Millisecond
	)
	start := time.Now()
	srv := &stallServer{from: start.Add(100 * time.Millisecond), to: start.Add(100*time.Millisecond + stall)}
	p := openLoop(2, evenly(d, time.Second/rate), d, limit, nil, srv.do)

	if p.attempted != 100 || p.failed != 0 || srv.served != 100 {
		t.Fatalf("attempted %d, failed %d, served %d; want 100, 0, 100", p.attempted, p.failed, srv.served)
	}
	// 40 ops fall due inside the stall; those due in its first 150 ms wait
	// over 50 ms for it to end. Allow a few for scheduling slack.
	slow := 0
	for _, ms := range p.latMs {
		if ms > float64(limit/time.Millisecond) {
			slow++
		}
	}
	if slow < 25 {
		t.Errorf("%d ops saw more than %v; a stall of %v at %d ops/s delays about 30 that long (coordinated omission would show 2)", slow, limit, stall, rate)
	}
	if int64(slow) != p.missed {
		t.Errorf("%d ops over the limit but %d counted missed", slow, p.missed)
	}
	if p.records != p.attempted-p.missed {
		t.Errorf("goodput counts %d records, want the %d ops inside the limit", p.records, p.attempted-p.missed)
	}
	if worst := percentile(p.latMs, 1); worst < 150 {
		t.Errorf("worst latency %v ms; an op due at the stall's start waits %v", worst, stall)
	}
	// The generator's own lateness is reported, not hidden: ops behind the
	// stall start late because both workers were stuck in it.
	if late := percentile(p.lateMs, 1); late < 100 {
		t.Errorf("worst lateness %v ms; ops due mid-stall could not start before it ended", late)
	}
	if len(p.lateMs) != 100 {
		t.Errorf("%d lateness samples for 100 writes", len(p.lateMs))
	}
}

func TestClosedLoopSamplesSlices(t *testing.T) {
	const d = 300 * time.Millisecond
	p := closedLoop(2, d, nil, func(int, spanRef) (int, error) {
		time.Sleep(time.Millisecond)
		return 10, nil
	})
	if p.failed != 0 || p.attempted == 0 || p.records != 10*p.attempted {
		t.Fatalf("attempted %d failed %d records %d", p.attempted, p.failed, p.records)
	}
	if len(p.rates) != nSlices || len(p.cpuNs) != nSlices || len(p.allocB) != nSlices {
		t.Fatalf("%d/%d/%d slice samples, want %d of each", len(p.rates), len(p.cpuNs), len(p.allocB), nSlices)
	}
	// Two workers, 10 records per ≥1 ms op: at most 20 000 records/s.
	if r := median(p.rates); r <= 0 || r > 20_000 {
		t.Errorf("median slice rate %v records/s", r)
	}
}

func TestFixedOps(t *testing.T) {
	for _, c := range []struct {
		d, nominal time.Duration
		want       int
	}{
		{15 * time.Second, 5 * time.Second, 3},
		{15 * time.Second, time.Second, 15},
		{time.Second, 5 * time.Second, 3},
		{20 * time.Second, 5 * time.Second, 4},
	} {
		if got := fixedOps(c.d, c.nominal); got != c.want {
			t.Errorf("fixedOps(%v, %v) = %d, want %d", c.d, c.nominal, got, c.want)
		}
	}
}
