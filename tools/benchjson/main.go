// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document on stdout, so `make bench` can commit a
// stable artifact (BENCH_collector.json) that CI and later sessions diff
// against instead of scraping console logs.
//
// Every benchmark line becomes one entry; the trailing value/unit pairs
// (ns/op, B/op, allocs/op, custom units like records/s) are kept verbatim
// as a unit-keyed metric map. The goos/goarch/cpu header lines are
// captured as the environment block.
//
// When the input holds both BenchmarkCollectorIngest and
// BenchmarkTracedIngest rows with matching sub-benchmark names, a
// comparisons block is emitted with the ns/op overhead of the traced path
// in percent — the number the <=5% tracing budget is checked against.
// Likewise, the constellation-engine pairs (BenchmarkConstellationVisibility
// vs its Brute baseline, BenchmarkTable1 vs BenchmarkTable1Serial) become
// comparisons with a base/candidate speedup factor. Whenever any
// comparisons are present, the geometric-mean speedup across them is
// emitted as a top-level geomean_speedup field and echoed to stderr so
// `make bench-sim` prints the headline without parsing JSON.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Runs counts the input rows averaged into this entry (> 1 when the
	// bench ran with -count).
	Runs int `json:"runs,omitempty"`
}

// collapseRuns averages duplicate rows from `go test -count=N` into one
// entry per benchmark name (mean of each metric, iterations summed), so a
// multi-count run tightens a comparison instead of emitting N near-duplicate
// comparisons whose scatter is the very noise -count exists to cancel.
func collapseRuns(in []benchmark) []benchmark {
	byName := map[string]*benchmark{}
	var order []string
	for _, b := range in {
		agg, ok := byName[b.Name]
		if !ok {
			cp := b
			cp.Metrics = map[string]float64{}
			cp.Runs = 0
			cp.Iterations = 0
			byName[b.Name] = &cp
			order = append(order, b.Name)
			agg = &cp
		}
		agg.Runs++
		agg.Iterations += b.Iterations
		for unit, v := range b.Metrics {
			agg.Metrics[unit] += v
		}
	}
	out := make([]benchmark, 0, len(order))
	for _, name := range order {
		agg := byName[name]
		for unit := range agg.Metrics {
			agg.Metrics[unit] /= float64(agg.Runs)
		}
		out = append(out, *agg)
	}
	return out
}

type comparison struct {
	Name          string  `json:"name"`
	Base          string  `json:"base"`
	Candidate     string  `json:"candidate"`
	BaseNsOp      float64 `json:"base_ns_op"`
	CandidateNsOp float64 `json:"candidate_ns_op"`
	DeltaPct      float64 `json:"delta_pct"`
	// Speedup is base/candidate ns/op: >1 means the candidate is faster.
	Speedup float64 `json:"speedup"`
	// Throughput headlines, present when both rows report a records/s
	// metric (the ingest benchmarks do).
	BaseRecPerSec      float64 `json:"base_records_per_sec,omitempty"`
	CandidateRecPerSec float64 `json:"candidate_records_per_sec,omitempty"`
}

type report struct {
	Env         map[string]string `json:"env"`
	Benchmarks  []benchmark       `json:"benchmarks"`
	Comparisons []comparison      `json:"comparisons,omitempty"`
	// GeomeanSpeedup summarises all comparisons in this report as one
	// factor (the geometric mean of their speedups).
	GeomeanSpeedup float64 `json:"geomean_speedup,omitempty"`
	// ShardScaling maps a benchmark family to its shards=8 records/s over
	// its shards=1 records/s — the shard fan-out efficiency number
	// `make bench-e2e` tracks in BENCH_e2e.json.
	ShardScaling map[string]float64 `json:"shard_scaling,omitempty"`
}

// shardScaling computes, for every family with shards=1 and shards=8 rows
// carrying a records/s metric, the 8-shard over 1-shard throughput ratio.
// Sub-benchmark names keep go test's "-N" GOMAXPROCS suffix on the row, so
// it is stripped before matching.
func shardScaling(benchmarks []benchmark) map[string]float64 {
	perShard := map[string]map[string]float64{}
	for _, b := range benchmarks {
		i := strings.IndexByte(b.Name, '/')
		if i < 0 || b.Metrics["records/s"] <= 0 {
			continue
		}
		family, sub := b.Name[:i], b.Name[i+1:]
		if j := strings.LastIndexByte(sub, '-'); j >= 0 {
			if _, err := strconv.Atoi(sub[j+1:]); err == nil {
				sub = sub[:j]
			}
		}
		if perShard[family] == nil {
			perShard[family] = map[string]float64{}
		}
		perShard[family][sub] = b.Metrics["records/s"]
	}
	out := map[string]float64{}
	for family, subs := range perShard {
		one, eight := subs["shards=1"], subs["shards=8"]
		if one > 0 && eight > 0 {
			out[family] = eight / one
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// comparePairs matches candidate rows to base rows sharing the same
// sub-benchmark path (everything after the top-level name, e.g.
// "/shards=4-8") and reports the candidate's ns/op delta.
func comparePairs(benchmarks []benchmark, name, basePrefix, candPrefix string) []comparison {
	bySub := map[string]benchmark{}
	for _, b := range benchmarks {
		if sub, ok := strings.CutPrefix(b.Name, basePrefix); ok {
			bySub[sub] = b
		}
	}
	var out []comparison
	for _, c := range benchmarks {
		sub, ok := strings.CutPrefix(c.Name, candPrefix)
		if !ok {
			continue
		}
		base, ok := bySub[sub]
		if !ok || base.Metrics["ns/op"] <= 0 || c.Metrics["ns/op"] <= 0 {
			continue
		}
		out = append(out, comparison{
			Name:               name,
			Base:               base.Name,
			Candidate:          c.Name,
			BaseNsOp:           base.Metrics["ns/op"],
			CandidateNsOp:      c.Metrics["ns/op"],
			DeltaPct:           100 * (c.Metrics["ns/op"] - base.Metrics["ns/op"]) / base.Metrics["ns/op"],
			Speedup:            base.Metrics["ns/op"] / c.Metrics["ns/op"],
			BaseRecPerSec:      base.Metrics["records/s"],
			CandidateRecPerSec: c.Metrics["records/s"],
		})
	}
	return out
}

// subName extracts the sub-benchmark path ("/shards=4") from a full row
// name, so throughput headlines distinguish the shard configurations.
func subName(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return strings.TrimSuffix(name[i:], "-"+name[strings.LastIndexByte(name, '-')+1:])
	}
	return ""
}

func main() {
	rep := report{Env: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				rep.Env[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	rep.Benchmarks = collapseRuns(rep.Benchmarks)
	rep.Comparisons = comparePairs(rep.Benchmarks, "traced-vs-untraced-ingest",
		"BenchmarkCollectorIngest", "BenchmarkTracedIngest")
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "pruned-vs-brute-visibility",
		"BenchmarkConstellationVisibilityBrute", "BenchmarkConstellationVisibility")...)
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "engine-vs-serial-table1",
		"BenchmarkTable1Serial", "BenchmarkTable1")...)
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "cluster-3x-vs-1x-ingest",
		"BenchmarkClusterIngest1", "BenchmarkClusterIngest3")...)
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "shed-armed-idle-vs-off-ingest",
		"BenchmarkCollectorIngest", "BenchmarkShedIdleIngest")...)
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "federated-vs-single-scrape",
		"BenchmarkScrapeSingle", "BenchmarkScrapeFederated")...)
	// The admission-check budget pair: BenchmarkShedAdmit's ns/op over one
	// ingested record's ns/op is the per-record cost fraction the <=1%
	// shed budget is checked against (candidate_ns_op / base_ns_op).
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "shed-admission-vs-ingest-record",
		"BenchmarkCollectorIngest/shards=4", "BenchmarkShedAdmit")...)
	// The tsdb self-scrape budget pair: BenchmarkTSDBScrapeAmortized prices
	// one scrape tick amortized over the records a collector ingests per
	// scrape interval, so candidate_ns_op / base_ns_op is the per-record
	// self-observation cost fraction the <=1% tsdb budget is checked against.
	rep.Comparisons = append(rep.Comparisons, comparePairs(rep.Benchmarks, "tsdb-scrape-vs-ingest-record",
		"BenchmarkCollectorIngest/shards=4", "BenchmarkTSDBScrapeAmortized")...)
	if len(rep.Comparisons) > 0 {
		logSum := 0.0
		for _, c := range rep.Comparisons {
			logSum += math.Log(c.Speedup)
			if c.CandidateRecPerSec > 0 && c.BaseRecPerSec > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %-28s %.2fx (%.0f vs %.0f records/s)\n",
					c.Name+subName(c.Candidate), c.Speedup, c.CandidateRecPerSec, c.BaseRecPerSec)
				continue
			}
			fmt.Fprintf(os.Stderr, "benchjson: %-28s %.2fx (%+.1f%% ns/op)\n", c.Name, c.Speedup, c.DeltaPct)
		}
		rep.GeomeanSpeedup = math.Exp(logSum / float64(len(rep.Comparisons)))
		fmt.Fprintf(os.Stderr, "benchjson: geomean speedup over %d comparison(s): %.2fx\n",
			len(rep.Comparisons), rep.GeomeanSpeedup)
	}
	rep.ShardScaling = shardScaling(rep.Benchmarks)
	for family, ratio := range rep.ShardScaling {
		fmt.Fprintf(os.Stderr, "benchjson: shard_scaling %-24s %.2fx (shards=8 vs shards=1 records/s)\n",
			family, ratio)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
