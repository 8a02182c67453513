package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// runTraced is the separate traced run: the workload's loop once without and
// once with spans (half the time each; their ratio is the tracing overhead),
// the output check, then the workload's staged pass over the same inputs. It
// reports the per-layer metrics; end-to-end metrics are never taken here.
func runTraced(w workload, e *env, inst instance, d time.Duration, outDir string) (result, error) {
	base, err := inst.run(d/2, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	devBefore := e.fs.Counts()
	ph, err := inst.run(d/2, tr)
	if err != nil {
		return result{}, err
	}
	ph.dev = e.fs.Counts().Sub(devBefore)
	verr := inst.verify(ph)

	vals, err := inst.layers(tr, ph)
	if err != nil {
		return result{}, fmt.Errorf("staged pass: %w", err)
	}
	if b := median(base.rates); b > 0 {
		vals["bench.trace_overhead_ratio"] = 1 - median(ph.rates)/b
	}
	res := result{
		Correct:   verr == nil,
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   withUnits(vals, perLayerSpec),
	}
	for _, s := range perLayerSpec {
		if _, ok := vals[s.Name]; ok {
			fmt.Printf("%-40s %14.6g %s\n", s.Name, vals[s.Name], s.Unit)
		}
	}
	fmt.Printf("layers idle on this workload (reported as 0): %d of %d\n", len(perLayerSpec)-len(vals), len(perLayerSpec))
	fmt.Printf("traced loop: ops attempted=%d failed=%d records=%d ack_samples=%d late_samples=%d read_samples=%d\n",
		ph.attempted, ph.failed, ph.records, len(ph.latMs), len(ph.lateMs), len(ph.readMs))
	if verr != nil {
		fmt.Printf("output check FAILED: %v\n", verr)
	} else {
		fmt.Println("output check ok")
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := tr.write(path, traceFile{Workload: w.name, Seed: e.seed, Env: e.block, Metrics: res.Metrics}); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace written to %s\n", path)
	return res, nil
}

// loadgenMetrics is the generator's own view of an HTTP loop. A tail is
// reported only when the sample leaves ten samples beyond it; otherwise it
// reads 0 and the printed sample counts say why.
func loadgenMetrics(p *phase, vals map[string]float64) {
	vals["loadgen.ack_p90_ms"], _ = tailPercentile(p.latMs, 0.90)
	vals["loadgen.ack_p99_ms"], _ = tailPercentile(p.latMs, 0.99)
	vals["loadgen.ack_p999_ms"], _ = tailPercentile(p.latMs, 0.999)
	vals["loadgen.ack_max_ms"] = percentile(p.latMs, 1)
	vals["loadgen.late_p99_ms"], _ = tailPercentile(p.lateMs, 0.99)
	vals["loadgen.missed_ratio"] = float64(p.missed) / float64(max(p.attempted, 1))
	vals["loadgen.retried"] = float64(p.retried)
}

// deviceMetrics is what crossed the WAL device during the traced loop.
func deviceMetrics(p *phase, frames int64, vals map[string]float64) {
	vals["wal.fsyncs_per_kframe"] = float64(p.dev.Syncs) / (float64(max(frames, 1)) / 1000)
	vals["wal.b_per_record"] = float64(p.dev.Bytes) / float64(max(p.records, 1))
	vals["wal.device_sync_wait_s"] = p.dev.SyncWait.Seconds()
}

// perRecord is a stage's CPU per record, in ns.
func perRecord(u usage, records int) float64 {
	return float64(u.cpu) / float64(records)
}

// repeatMs calls fn n times under spans called name and returns the median
// wall time in ms.
func repeatMs(tr *tracer, name string, n int, fn func() error) (float64, error) {
	root := tr.start("stage/"+name, noParent, 0)
	defer root.end()
	var ms []float64
	for i := 0; i < n; i++ {
		sp := tr.start(name, root, int64(i))
		start := time.Now()
		err := fn()
		ms = append(ms, float64(time.Since(start))/1e6)
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}
