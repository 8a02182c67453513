package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// buildSketchBlob hand-assembles a MarshalBinary blob so tests can create
// sketches holding billions of samples without adding them one by one.
// Keys must be pre-sorted; sum/min/max are the caller's claim and must be
// consistent with the invariant checks in UnmarshalBinary.
func buildSketchBlob(alpha float64, maxBuckets int, zero uint64, keys []int, counts []uint64, sum, min, max float64) []byte {
	var buf []byte
	buf = append(buf, 1) // sketchWireVersion
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(alpha))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(maxBuckets))
	buf = binary.LittleEndian.AppendUint64(buf, zero)
	total := zero
	for _, c := range counts {
		total += c
	}
	buf = binary.LittleEndian.AppendUint64(buf, total)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(max))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for i, k := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(k)))
		buf = binary.LittleEndian.AppendUint64(buf, counts[i])
	}
	return buf
}

func sketchFromBlob(t *testing.T, blob []byte) *QuantileSketch {
	t.Helper()
	s, err := NewQuantileSketch(DefaultSketchRelErr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSketchMergeLargeCounts is the overflow property: bucket and total
// counts crossing 2³² must survive merging exactly — a sketch that
// internally truncated to 32 bits would lose billions of samples and skew
// every quantile. Counts are exact by contract, so they are checked
// exactly.
func TestSketchMergeLargeCounts(t *testing.T) {
	const big = uint64(1)<<32 - 3 // just under 2³²
	// Three sketches sharing bucket keys, each holding ~2³² samples, with
	// integer sums so float accumulation is exact.
	mk := func(countA, countB uint64) *QuantileSketch {
		keys := []int{100, 200}
		counts := []uint64{countA, countB}
		// Representative values don't matter for the count checks; claim a
		// consistent min/max and an integral sum.
		return sketchFromBlob(t, buildSketchBlob(
			DefaultSketchRelErr, 1024, 0, keys, counts,
			float64(countA+countB)*2, 1, 10))
	}
	a := mk(big, 1)
	b := mk(5, big)
	c := mk(big, big)

	merged := a.Clone()
	if err := merged.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(c); err != nil {
		t.Fatal(err)
	}
	wantCount := (big + 1) + (big + 5) + 2*big
	if merged.Count() != wantCount {
		t.Fatalf("merged count %d, want %d (lost %d samples)", merged.Count(), wantCount, wantCount-merged.Count())
	}
	// The merged bucket counts must be the exact sums.
	if got := merged.bucket(100); got != big+5+big {
		t.Fatalf("bucket 100 holds %d, want %d", got, big+5+big)
	}
	if got := merged.bucket(200); got != 1+big+big {
		t.Fatalf("bucket 200 holds %d, want %d", got, 1+big+big)
	}
	// Rank arithmetic at ~1.7e10 samples must stay in range: the median
	// falls in bucket 100 (the smaller key holds just over half the mass).
	med := merged.Quantile(0.5)
	if math.IsNaN(med) || med <= 0 {
		t.Fatalf("median of 17-billion-sample sketch is %v", med)
	}
	if p999 := merged.Quantile(0.999); p999 < med {
		t.Fatalf("p999 %v below median %v", p999, med)
	}
	// Count survives a serialisation round trip at this magnitude.
	blob, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Count() != wantCount {
		t.Fatalf("round-tripped count %d, want %d", back.Count(), wantCount)
	}
}

// TestSketchMergeOrderInvariance is the shard-aggregation property: merging
// the same set of sketches in any order produces the same serialised bytes.
// (Sums are integral here so float addition is exact; with arbitrary floats
// only the counts and bucket contents are order-free.)
func TestSketchMergeOrderInvariance(t *testing.T) {
	const big = uint64(1) << 31
	blobs := [][]byte{
		buildSketchBlob(DefaultSketchRelErr, 1024, 3, []int{-50, 10}, []uint64{big, 7}, float64(big+7+3), 0, 5),
		buildSketchBlob(DefaultSketchRelErr, 1024, 0, []int{10, 300}, []uint64{big, big}, float64(2*big)*3, 2, 80),
		buildSketchBlob(DefaultSketchRelErr, 1024, 1, []int{-50, 300, 400}, []uint64{1, 2, big}, float64(big+3+1)*4, 0, 900),
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want []byte
	for pi, perm := range perms {
		acc, err := NewQuantileSketch(DefaultSketchRelErr)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range perm {
			s := sketchFromBlob(t, blobs[i])
			if err := acc.Merge(s); err != nil {
				t.Fatal(err)
			}
		}
		got, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if pi == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merge order %v produced different bytes than order %v", perm, perms[0])
		}
	}
	// And the quantiles from any order agree with the first.
	acc := sketchFromBlob(t, blobs[0])
	for _, i := range []int{1, 2} {
		if err := acc.Merge(sketchFromBlob(t, blobs[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v := acc.Quantile(q)
		if math.IsNaN(v) {
			t.Fatalf("q=%v is NaN after large merge", q)
		}
	}
}

// TestSketchMergeAccuracyAtScale checks the quantile contract holds when
// counts are huge: a two-bucket sketch with 3×2³² samples below x and 2³²
// above must put the 0.6-quantile in the lower bucket and the 0.9 in the
// upper, within the configured relative error.
func TestSketchMergeAccuracyAtScale(t *testing.T) {
	s, err := NewQuantileSketch(DefaultSketchRelErr)
	if err != nil {
		t.Fatal(err)
	}
	lowKey := int(s.key(100))   // ~100ms bucket
	highKey := int(s.key(5000)) // ~5s bucket
	const quarter = uint64(1) << 32
	blob := buildSketchBlob(DefaultSketchRelErr, 1024, 0,
		[]int{lowKey, highKey}, []uint64{3 * quarter, quarter},
		float64(3*quarter)*100+float64(quarter)*5000, 100, 5000)
	sk := sketchFromBlob(t, blob)

	q60 := sk.Quantile(0.6)
	if rel := math.Abs(q60-100) / 100; rel > 3*DefaultSketchRelErr {
		t.Fatalf("q60 %v not within relative error of 100 (rel %v)", q60, rel)
	}
	q90 := sk.Quantile(0.9)
	if rel := math.Abs(q90-5000) / 5000; rel > 3*DefaultSketchRelErr {
		t.Fatalf("q90 %v not within relative error of 5000 (rel %v)", q90, rel)
	}
}
