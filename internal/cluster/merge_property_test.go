package cluster

import (
	"math"
	"testing"

	"starlinkview/internal/collector"
)

// TestMergePartitionProperty is the merge path's core invariant: for any K,
// splitting the record stream across K aggregators and merging their
// exported states equals one aggregator that saw everything. Counts, domain
// sets, quantiles and city tables are exact (sketch merges add bucket
// counts); means may differ only by float summation order, because
// round-robin partitioning splits groups across instances.
func TestMergePartitionProperty(t *testing.T) {
	records := testRecords(4000)
	ref := ingestAll(t, 0, 1, records)

	for _, k := range []int{1, 2, 3, 5} {
		states := make([]collector.MergeState, k)
		for p := 0; p < k; p++ {
			snap := ingestAll(t, p, k, records)
			var err error
			if states[p], err = snap.ExportState(); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := collector.MergeStates(states...)
		if err != nil {
			t.Fatalf("K=%d: merge: %v", k, err)
		}
		assertSnapshotsEquivalent(t, k, ref, merged)
	}
}

// ingestAll feeds partition p of k (every k-th record starting at p; k == 1
// means the whole stream) into a fresh aggregator and returns its drained
// snapshot.
func ingestAll(t *testing.T, p, k int, records []record) *collector.Snapshot {
	t.Helper()
	agg, err := collector.OpenAggregator(collector.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		if i%k == p%k {
			if offerRecords(agg, r) != 1 {
				t.Fatalf("record %d rejected", i)
			}
		}
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	return agg.Snapshot()
}

// approx allows only float-summation-order error.
func approx(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func assertSnapshotsEquivalent(t *testing.T, k int, ref, got *collector.Snapshot) {
	t.Helper()
	if got.Accepted != ref.Accepted || got.Dropped != ref.Dropped || got.Processed != ref.Processed {
		t.Errorf("K=%d: totals %d/%d/%d, want %d/%d/%d", k,
			got.Accepted, got.Dropped, got.Processed, ref.Accepted, ref.Dropped, ref.Processed)
	}
	if len(got.Groups) != len(ref.Groups) {
		t.Fatalf("K=%d: %d groups, want %d", k, len(got.Groups), len(ref.Groups))
	}
	for i, rg := range ref.Groups {
		gg := got.Groups[i]
		if gg.City != rg.City || gg.ISP != rg.ISP {
			t.Fatalf("K=%d: group %d is %s/%s, want %s/%s", k, i, gg.City, gg.ISP, rg.City, rg.ISP)
		}
		// Exact: counts, domain cardinality, and quantiles (merging adds
		// sketch bucket counts, it never re-buckets).
		if gg.Count != rg.Count || gg.Domains != rg.Domains {
			t.Errorf("K=%d: group %s/%s count/domains %d/%d, want %d/%d",
				k, rg.City, rg.ISP, gg.Count, gg.Domains, rg.Count, rg.Domains)
		}
		if gg.P50PTTMs != rg.P50PTTMs || gg.P95PTTMs != rg.P95PTTMs {
			t.Errorf("K=%d: group %s/%s quantiles differ: p50 %v vs %v, p95 %v vs %v",
				k, rg.City, rg.ISP, gg.P50PTTMs, rg.P50PTTMs, gg.P95PTTMs, rg.P95PTTMs)
		}
		if !approx(gg.MeanPTTMs, rg.MeanPTTMs) {
			t.Errorf("K=%d: group %s/%s mean %v, want %v", k, rg.City, rg.ISP, gg.MeanPTTMs, rg.MeanPTTMs)
		}
	}
	refTable := ref.CityTableJSON()
	gotTable := got.CityTableJSON()
	if len(gotTable) != len(refTable) {
		t.Fatalf("K=%d: city table %d rows, want %d", k, len(gotTable), len(refTable))
	}
	for i, rr := range refTable {
		if gotTable[i] != rr { // struct equality: medians must be exact
			t.Errorf("K=%d: city table row %d = %+v, want %+v", k, i, gotTable[i], rr)
		}
	}
}
