package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// selfcheck answers the question the benchmark's acceptance turns on: do two
// sets of runs of the same code agree within the benchmark's own bounds? It
// runs every workload in fresh processes of this binary, the two sets
// alternating run by run so a slow stretch of the box lands on both, and
// compares the sets' medians metric by metric.

type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how much the worse set's median is beyond the better one's,
	// as a share of the better one's.
	Worse float64 `json:"worse"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

type checkFile struct {
	Seconds float64    `json:"seconds"`
	Runs    int        `json:"runs_per_set"`
	NProc   int        `json:"nproc"`
	Go      string     `json:"go_version"`
	Commit  string     `json:"commit"`
	OK      bool       `json:"ok"`
	Rows    []checkRow `json:"rows"`
}

// runChild runs one workload in a fresh process and returns its result line.
func runChild(exe, name string, seed int, seconds float64, outDir string) (result, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return result{}, fmt.Errorf("%s seed %d: correct=%v failed=%d", name, seed, res.Correct, res.Failed)
	}
	return res, nil
}

func runSelfcheck(seconds float64, runs int, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %v\n", err)
		return 1
	}
	// sets[set][workload][metric] is one value per run.
	var sets [2]map[string]map[string][]float64
	for i := range sets {
		sets[i] = map[string]map[string][]float64{}
	}
	for run := 0; run < runs; run++ {
		for set := range sets {
			for _, w := range workloads() {
				res, err := runChild(exe, w.name, run+1, seconds, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %v\n", err)
					return 1
				}
				if sets[set][w.name] == nil {
					sets[set][w.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					sets[set][w.name][name] = append(sets[set][w.name][name], m.Value)
				}
				fmt.Printf("selfcheck: set %c run %d %s done\n", 'A'+set, run+1, w.name)
			}
		}
	}
	file := checkFile{Seconds: seconds, Runs: runs, NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit(), OK: true}
	for _, w := range workloads() {
		for _, spec := range endToEndSpec {
			a, b := median(sets[0][w.name][spec.Name]), median(sets[1][w.name][spec.Name])
			row := checkRow{Workload: w.name, Metric: spec.Name, Unit: spec.Unit, A: a, B: b, Bound: spec.Bound}
			row.Worse = max(a, b)/min(a, b) - 1
			row.OK = row.Worse <= spec.Bound
			file.OK = file.OK && row.OK
			file.Rows = append(file.Rows, row)
			verdict := "ok"
			if !row.OK {
				verdict = "MISS"
			}
			fmt.Printf("%-18s %-20s a=%-12.6g b=%-12.6g worse by %5.1f%% (bound %2.0f%%) %s\n",
				w.name, spec.Name, a, b, 100*row.Worse, 100*spec.Bound, verdict)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "selfcheck.json"), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %v\n", err)
		return 1
	}
	if !file.OK {
		return 1
	}
	return 0
}
