package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// --- estimators ---------------------------------------------------------

// median returns the middle of vals (mean of the two middles for an even
// count), NaN for none. vals is not modified.
func median(vals []float64) float64 { return percentile(vals, 0.5) }

// percentile is the linearly interpolated q-quantile of vals, NaN for none.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer the estimate is one or two outliers, not a tail.
const minTailSamples = 10

// supported reports whether n samples leave at least minTailSamples beyond
// the q-quantile.
func supported(n int, q float64) bool {
	// The slack absorbs 1-q not being exact: 100 × (1 − 0.9) is 9.999….
	return float64(n)*(1-q) >= minTailSamples-1e-9
}

// tailPercentile is percentile under the ten-samples-beyond rule: 0 and
// false when the sample cannot support q.
func tailPercentile(vals []float64, q float64) (float64, bool) {
	if !supported(len(vals), q) {
		return 0, false
	}
	return percentile(vals, q), true
}

// --- process accounting -------------------------------------------------

// usage is the process's cumulative CPU and allocation at one instant, or
// (in a meter's total) over its timed sections together with their wall time.
type usage struct {
	cpu   time.Duration // user+sys, getrusage(RUSAGE_SELF)
	alloc uint64        // /gc/heap/allocs:bytes, what MemStats calls TotalAlloc
	wall  time.Duration
}

// readUsage reads the cumulative allocation through runtime/metrics, not
// runtime.ReadMemStats: the latter waits for a running GC cycle to finish,
// which on a large heap held a slice boundary up by over a second.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocs[0].Value.Uint64(),
	}
}

// meter sums usage over the timed sections of a run; untimed work between
// ops (copying a WAL directory, verifying an output) stays out of it.
type meter struct {
	total  usage
	open   usage
	openAt time.Time
}

func (m *meter) begin() {
	m.open = readUsage()
	m.openAt = time.Now()
}

func (m *meter) end() {
	wall := time.Since(m.openAt)
	now := readUsage()
	m.total.cpu += now.cpu - m.open.cpu
	m.total.alloc += now.alloc - m.open.alloc
	m.total.wall += wall
}

// peakRSSMB reads VmHWM, the process's high-water resident set.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
