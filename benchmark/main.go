// Command benchmark is the repo's one benchmark: five seeded workloads, six
// end-to-end metrics each, and a separate traced run that attributes the
// time to layers. See README.md in this directory for the catalogue.
//
//	go run ./benchmark -workload ingest_closed -seed 1
//	go run ./benchmark -workload ingest_closed -seed 1 -trace 1
//	go run ./benchmark -selfcheck
//
// One invocation runs one workload in one fresh process and prints, as its
// last line of standard output, the JSON object BENCHMARK.json's contract
// asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"starlinkview/benchmark/benchfs"
	"starlinkview/internal/wal"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envBlock is the environment every number is tied to.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Device     string `json:"device"`
	DeviceDir  string `json:"device_dir"`
}

// env is what a workload's set-up is given.
type env struct {
	seed uint64
	// streams is the generator's concurrency: goroutines and connections.
	// Never more than nproc, so the generator cannot oversubscribe the box
	// it shares with the program.
	streams int
	dev     benchfs.Device
	fs      *benchfs.FS
	block   envBlock
	// dirs numbers the WAL directories handed out on the device.
	dirs int
	// poolBytes is the size of the input pool the last set-up generated.
	poolBytes int
}

// walDir returns a fresh directory path on the device (not yet created; the
// WAL makes it).
func (e *env) walDir() string {
	e.dirs++
	return filepath.Join(e.dev.Dir, fmt.Sprintf("wal-%03d", e.dirs))
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newEnv(seed uint64, outDir string) (*env, error) {
	nproc := runtime.NumCPU()
	// Pinned and recorded: before Go 1.25 GOMAXPROCS ignores a container's
	// CPU quota, and an inherited GOMAXPROCS variable would change every
	// number silently.
	runtime.GOMAXPROCS(nproc)
	dev, err := benchfs.OpenDevice(filepath.Join(outDir, "dev"))
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	return &env{
		seed:    seed,
		streams: min(2, nproc),
		dev:     dev,
		fs:      benchfs.New(wal.OSFS{}),
		block: envBlock{
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(),
			Device: dev.Kind, DeviceDir: dev.Dir,
		},
	}, nil
}

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	// run is the timed phase, about d long. tr is nil on the untraced run.
	run(d time.Duration, tr *tracer) (*phase, error)
	// verify checks the program's outputs after run.
	verify(p *phase) error
	// layers is the traced run's staged pass over the same inputs: it
	// returns the per-layer metrics this workload exercises.
	layers(tr *tracer, p *phase) (map[string]float64, error)
	close() error
}

type workload struct {
	name  string
	why   string
	setup func(e *env) (instance, error)
}

// setupReps is how many times an untraced run sets the workload up; setup_s
// is the median, so one slow page-fault storm does not set the number.
const setupReps = 3

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 15, "length of the timed phase")
		traced    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two alternating sets and compare the sets against the bounds")
		runs      = flag.Int("runs", 1, "with -selfcheck: runs per set (seeds 1..runs); a set's value is the median")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "where trace and selfcheck files go")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(runSelfcheck(*seconds, *runs, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:", *name)
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	res, err := runOne(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced != 0, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload in this process and prints the human-readable
// report; the caller prints the result line.
func runOne(w workload, seed uint64, d time.Duration, traced bool, outDir string) (res result, err error) {
	e, err := newEnv(seed, outDir)
	if err != nil {
		return res, err
	}
	defer func() {
		if rerr := e.dev.Remove(); err == nil && rerr != nil {
			err = fmt.Errorf("remove device dir: %w", rerr)
		}
	}()
	// The device directory is outside the checkout: a run that is
	// interrupted, or whose reader goes away, must not leave it behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sigs)
		close(done)
	}()
	go func() {
		select {
		case sig := <-sigs:
			_ = e.dev.Remove()
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", sig)
			os.Exit(1)
		case <-done:
		}
	}()
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, d.Seconds(), traced)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s commit=%s device=%s dir=%s streams=%d\n",
		e.block.NProc, e.block.GOMAXPROCS, e.block.GoVersion, e.block.Commit, e.block.Device, e.block.DeviceDir, e.streams)
	if e.dev.Kind != "tmpfs" {
		fmt.Println("env note: no tmpfs; the durable-ingest numbers below are the sandbox disk's, not the program's")
	}

	reps := setupReps
	if traced {
		reps = 1
	}
	var inst instance
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, fmt.Errorf("close after set-up %d: %w", rep, err)
			}
		}
		start := time.Now()
		if inst, err = w.setup(e); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	if traced {
		return runTraced(w, e, inst, d, outDir)
	}
	ph, err := inst.run(d, nil)
	if err != nil {
		return res, err
	}
	if ph.records == 0 {
		return res, fmt.Errorf("no op completed: %w", ph.firstErr)
	}
	// Before the output check, whose reference state is the benchmark's
	// memory and not the program's.
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	verr := inst.verify(ph)
	res = result{Correct: verr == nil, Attempted: ph.attempted, Failed: ph.failed, Metrics: endToEnd(setups, ph, rss)}
	report(res.Metrics, endToEndSpec)
	fmt.Printf("ops attempted=%d failed=%d missed=%d records=%d latency_samples=%d setups=%.3v input_pool_mb=%.1f\n",
		ph.attempted, ph.failed, ph.missed, ph.records, len(ph.latMs), setups, float64(e.poolBytes)/(1<<20))
	fmt.Printf("records/s by slice or op: %.4g\n", ph.rates)
	if ph.firstErr != nil {
		fmt.Printf("first error: %v\n", ph.firstErr)
	}
	if verr != nil {
		fmt.Printf("output check FAILED: %v\n", verr)
	} else {
		fmt.Println("output check ok")
	}
	return res, nil
}

// endToEnd derives the six end-to-end metrics from a timed phase.
func endToEnd(setups []float64, ph *phase, rssMB float64) map[string]metric {
	vals := map[string]float64{
		"setup_s":            median(setups),
		"records_per_s":      median(ph.rates),
		"cpu_ns_per_record":  median(ph.cpuNs),
		"alloc_b_per_record": median(ph.allocB),
		"peak_rss_mb":        rssMB,
		"op_p50_ms":          median(ph.latMs),
	}
	return withUnits(vals, endToEndSpec)
}

// withUnits attaches each spec'd metric's unit; a metric the run did not
// produce reads 0 (a layer that is idle on this workload did no work).
func withUnits(vals map[string]float64, spec []metricSpec) map[string]metric {
	out := make(map[string]metric, len(spec))
	for _, s := range spec {
		out[s.Name] = metric{Value: vals[s.Name], Unit: s.Unit}
	}
	return out
}

// report prints metrics by name with their units, in spec order.
func report(m map[string]metric, spec []metricSpec) {
	for _, s := range spec {
		fmt.Printf("%-40s %14.6g %s\n", s.Name, m[s.Name].Value, s.Unit)
	}
}
