package main

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starlinkview/benchmark/benchfs"
)

// phase is what one timed phase produced; the harness turns it into the
// end-to-end metrics.
type phase struct {
	attempted int64
	failed    int64
	// records is the records whose op completed without error (and, on the
	// open loop, within the latency limit).
	records int64
	// latMs is one latency per successful op, in milliseconds.
	latMs []float64
	// rates, cpuNs and allocB are records/s, CPU ns per record and allocated
	// bytes per record, one sample per time slice (loops) or per op (fixed
	// work). The reported metric is each series' median.
	rates  []float64
	cpuNs  []float64
	allocB []float64

	// The generator's own view (HTTP workloads).
	lateMs   []float64 // open loop: how long after its due time each op started
	missed   int64     // open loop: writes that failed or exceeded the limit
	retried  int64
	readMs   []float64 // open loop: GET /snapshot service times
	firstErr error
	// dev is what crossed the WAL device during the phase (traced run only).
	dev benchfs.Counts
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.records += o.records
	p.missed += o.missed
	p.latMs = append(p.latMs, o.latMs...)
	p.lateMs = append(p.lateMs, o.lateMs...)
	p.readMs = append(p.readMs, o.readMs...)
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// addSample appends one slice's or op's per-record costs.
func (p *phase) addSample(records float64, u usage) {
	if records <= 0 || u.wall <= 0 {
		return // a slice in which nothing completed has no per-record cost
	}
	p.rates = append(p.rates, records/u.wall.Seconds())
	p.cpuNs = append(p.cpuNs, float64(u.cpu)/records)
	p.allocB = append(p.allocB, float64(u.alloc)/records)
}

// nSlices is how many slices a loop's phase is cut into.
const nSlices = 10

// sampler cuts a loop's phase into nSlices equal slices and, at each
// boundary, reads the process's CPU and allocation and the records completed
// so far. Each metric is then the median slice's rather than total÷elapsed:
// a slow stretch (a noisy neighbour; this box halves its speed for seconds
// at a time) moves a mean by its full weight and a median, while it covers
// less than half the phase, not at all.
type sampler struct {
	records atomic.Int64 // credited by the workers as ops complete
	done    chan struct{}
}

func startSampler(start time.Time, d time.Duration, p *phase) *sampler {
	s := &sampler{done: make(chan struct{})}
	width := d / nSlices
	go func() {
		defer close(s.done)
		prev, prevRecs, prevAt := readUsage(), int64(0), start
		for i := 1; i <= nSlices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * width)))
			now, recs, at := readUsage(), s.records.Load(), time.Now()
			// The slice is as long as it was, not as long as it was meant
			// to be: a sampler that wakes late must not inflate the rate.
			p.addSample(float64(recs-prevRecs), usage{cpu: now.cpu - prev.cpu, alloc: now.alloc - prev.alloc, wall: at.Sub(prevAt)})
			prev, prevRecs, prevAt = now, recs, at
		}
	}()
	return s
}

// wait returns once the last boundary has been sampled.
func (s *sampler) wait() { <-s.done }

// closedLoop runs op on each of workers goroutines back to back for d: a
// worker issues its next op only when the previous one returned, so a slower
// system is offered less load. op returns the records it completed; sp is
// the op's span for children to hang under (inert when tr is nil).
func closedLoop(workers int, d time.Duration, tr *tracer, op func(worker int, sp spanRef) (int, error)) *phase {
	start := time.Now()
	deadline := start.Add(d)
	out := &phase{}
	sm := startSampler(start, d, out)
	parts := make([]phase, workers)
	var opID atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				sp := tr.start("op", noParent, opID.Add(1))
				n, err := op(w, sp)
				t1 := time.Now()
				sp.end()
				p.attempted++
				if err != nil {
					p.fail(err)
					continue
				}
				p.records += int64(n)
				p.latMs = append(p.latMs, float64(t1.Sub(t0))/1e6)
				sm.records.Add(int64(n))
			}
		}(w)
	}
	wg.Wait()
	sm.wait()
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// fixedLoop runs op n times on each of workers goroutines and returns the
// first error: the set-up's warm-up, fixed work so setup_s is a measurement
// and not a timer.
func fixedLoop(workers, n int, op func(worker int, sp spanRef) (int, error)) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n && errs[w] == nil; i++ {
				_, errs[w] = op(w, noParent)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fixedOps is how many ops a fixed-work phase of length d runs, given what
// one op nominally takes: a count fixed by the flags, not by how fast this
// run happens to go, so every run of a commit does the same work. Three at
// least, since a median needs them.
func fixedOps(d, nominal time.Duration) int {
	return max(3, int((d+nominal/2)/nominal))
}

// fixedWork runs op n times back to back on the calling goroutine. op
// brackets its own timed section with m and returns the records it produced,
// so untimed work between ops (copying inputs, checking outputs) stays out
// of every metric. Each op is one sample of every series.
func fixedWork(n int, tr *tracer, op func(m *meter, sp spanRef, tr *tracer) (int64, error)) *phase {
	p := &phase{}
	for i := 0; i < n; i++ {
		var m meter
		sp := tr.start("op", noParent, int64(i))
		recs, err := op(&m, sp, tr)
		sp.end()
		p.attempted++
		if err != nil {
			p.fail(err)
			continue
		}
		p.records += recs
		p.latMs = append(p.latMs, float64(m.total.wall)/1e6)
		p.addSample(float64(recs), m.total)
	}
	return p
}

// schedOp is one entry of an open-loop schedule: when it is due, counted
// from the start of the phase, and whether it is a read beside the writes.
type schedOp struct {
	due  time.Duration
	read bool
}

// schedule draws the due times of an open loop: writeRate×d writes arriving
// as independent users do, uniformly at random over d (a Poisson process
// given its count, so every seed offers the same load), and a read every
// 1/readRate. Evenly spaced writes would not do: 5 ms spacing against the
// server's 2 ms commit tick meets the tick at the same two phases all run
// long, and the median ack then measures where the run happened to start in
// the tick, ±0.5 ms from run to run.
func schedule(d time.Duration, writeRate, readRate int, seed uint64) []schedOp {
	rng := rand.New(rand.NewSource(int64(seed)))
	writes := int(d.Seconds() * float64(writeRate))
	out := make([]schedOp, 0, writes+int(d.Seconds()*float64(readRate))+1)
	for i := 0; i < writes; i++ {
		out = append(out, schedOp{due: time.Duration(rng.Int63n(int64(d)))})
	}
	if readRate > 0 {
		ri := time.Second / time.Duration(readRate)
		for due := ri / 2; due < d; due += ri {
			out = append(out, schedOp{due: due, read: true})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// openLoopGrace is how long past the schedule's end an open loop keeps
// working off a backlog before it gives the rest up as failed.
const openLoopGrace = 3 * time.Second

var errBacklog = errors.New("open loop: backlog outlived the grace period")

// openLoop issues sched on workers goroutines: each takes the next entry,
// sleeps until it is due, and runs it. An op is timed from when it was due,
// not from when a worker got to it, so a stall is charged to every op that
// waited behind it (no coordinated omission); how late each op started is
// reported too, so a generator that cannot keep its own schedule shows.
// A write counts toward goodput only if it succeeds within limit.
func openLoop(workers int, sched []schedOp, d, limit time.Duration, tr *tracer, do func(worker int, op schedOp, sp spanRef) (int, error)) *phase {
	start := time.Now()
	giveUp := start.Add(d + openLoopGrace)
	out := &phase{}
	sm := startSampler(start, d, out)
	parts := make([]phase, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				op := sched[i]
				due := start.Add(op.due)
				time.Sleep(time.Until(due))
				t0 := time.Now()
				p.attempted++
				if t0.After(giveUp) {
					p.fail(errBacklog)
					if !op.read {
						p.missed++
					}
					continue
				}
				sp := tr.start(opName(op), noParent, i)
				n, err := do(w, op, sp)
				t1 := time.Now()
				sp.end()
				switch {
				case op.read && err != nil:
					p.fail(err)
				case op.read:
					p.readMs = append(p.readMs, float64(t1.Sub(t0))/1e6)
				case err != nil:
					p.lateMs = append(p.lateMs, float64(t0.Sub(due))/1e6)
					p.missed++
					p.fail(err)
				default:
					p.lateMs = append(p.lateMs, float64(t0.Sub(due))/1e6)
					lat := t1.Sub(due)
					p.latMs = append(p.latMs, float64(lat)/1e6)
					if lat > limit {
						p.missed++
						continue
					}
					p.records += int64(n)
					sm.records.Add(int64(n))
				}
			}
		}(w)
	}
	wg.Wait()
	sm.wait()
	elapsed := time.Since(start)
	for i := range parts {
		out.merge(&parts[i])
	}
	// Goodput, not a slice median: the schedule pins the elapsed time, so
	// total÷elapsed is as steady as a median here, and unlike a median it
	// charges a burst of missed writes in full.
	out.rates = []float64{float64(out.records) / elapsed.Seconds()}
	return out
}

func opName(op schedOp) string {
	if op.read {
		return "op.read"
	}
	return "op.write"
}
