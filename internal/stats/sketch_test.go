package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestSketchEmpty(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sketch must answer NaN")
	}
	if s.Count() != 0 {
		t.Fatalf("empty sketch count = %d", s.Count())
	}
}

func TestSketchInvalidRelErr(t *testing.T) {
	// Below about 1.7e-7 the keys of the finite float64 range no longer fit
	// the wire format's int32.
	for _, e := range []float64{0, -0.1, 1, 2, math.NaN(), 1e-9, 1e-7} {
		if _, err := NewQuantileSketch(e); err == nil {
			t.Fatalf("relErr %v should be rejected", e)
		}
	}
	s, err := NewQuantileSketch(2e-7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.SmallestNonzeroFloat64, 1, math.MaxFloat64} {
		s.Add(v)
	}
	checkRoundTrip(t, s)
}

// checkRoundTrip requires MarshalBinary → UnmarshalBinary to answer every
// quantile on the reference grid with the same bits — what a checkpoint and
// restart must preserve.
func checkRoundTrip(t *testing.T, s *QuantileSketch) {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, q := range sketchQuantileGrid {
		if got, want := back.Quantile(q), s.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q=%v: %v after the round trip, %v before", q, got, want)
		}
	}
}

// TestSketchPositiveInfinity files +Inf with the largest finite values: a
// +Inf sample must not land in the lowest bucket (converting +Inf to int
// does, on amd64) and must survive a checkpoint round trip.
func TestSketchPositiveInfinity(t *testing.T) {
	s, _ := NewQuantileSketch(0.01)
	for _, v := range []float64{10, 20, 30, math.Inf(1)} {
		s.Add(v)
	}
	if got := s.Quantile(0.5); !relClose(got, 25, 0.02) {
		t.Fatalf("median of {10, 20, 30, +Inf} = %v, want ~25", got)
	}
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("max = %v, want +Inf", got)
	}
	checkRoundTrip(t, s)
}

// relClose reports whether est is within the sketch guarantee of want.
func relClose(est, want, alpha float64) bool {
	if want == 0 {
		return math.Abs(est) < 1e-12
	}
	return math.Abs(est-want) <= alpha*math.Abs(want)+1e-9
}

func TestSketchAccuracy(t *testing.T) {
	const alpha = 0.01
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() float64{
		"uniform":   func() float64 { return 10 + rng.Float64()*990 },
		"lognormal": func() float64 { return math.Exp(5 + rng.NormFloat64()) },
		"heavytail": func() float64 { return 20 / math.Pow(rng.Float64(), 1.5) },
	}
	for name, draw := range dists {
		s, err := NewQuantileSketch(alpha)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 20000)
		for i := range vals {
			vals[i] = draw()
			s.Add(vals[i])
		}
		if s.Count() != uint64(len(vals)) {
			t.Fatalf("%s: count %d != %d", name, s.Count(), len(vals))
		}
		if !relClose(s.Mean(), Mean(vals), 1e-9) {
			t.Fatalf("%s: mean %v != %v", name, s.Mean(), Mean(vals))
		}
		if s.Min() != Min(vals) || s.Max() != Max(vals) {
			t.Fatalf("%s: min/max not exact", name)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99} {
			want := Quantile(vals, q)
			got := s.Quantile(q)
			// 2*alpha leaves room for the nearest-rank vs interpolated
			// quantile definitions on top of the bucket error.
			if !relClose(got, want, 2*alpha) {
				t.Fatalf("%s: q=%v got %v want %v (err %.4f)",
					name, q, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

func TestSketchZeroAndNegative(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Add(0)
	}
	for i := 0; i < 10; i++ {
		s.Add(100)
	}
	if got := s.Quantile(0.25); got != 0 {
		t.Fatalf("q25 over half-zero stream = %v, want 0", got)
	}
	if got := s.Quantile(0.9); !relClose(got, 100, 0.02) {
		t.Fatalf("q90 = %v, want ~100", got)
	}
	s.Add(math.NaN()) // must be ignored
	if s.Count() != 20 {
		t.Fatalf("NaN was counted: %d", s.Count())
	}
}

func TestSketchMerge(t *testing.T) {
	const alpha = 0.01
	rng := rand.New(rand.NewSource(7))
	whole, _ := NewQuantileSketch(alpha)
	parts := make([]*QuantileSketch, 4)
	for i := range parts {
		parts[i], _ = NewQuantileSketch(alpha)
	}
	var vals []float64
	for i := 0; i < 8000; i++ {
		v := math.Exp(4 + rng.NormFloat64()*1.5)
		vals = append(vals, v)
		whole.Add(v)
		parts[i%len(parts)].Add(v)
	}
	merged, _ := NewQuantileSketch(alpha)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", merged.Count(), whole.Count())
	}
	// Summation order differs between the two, so allow float rounding.
	if !relClose(merged.Sum(), whole.Sum(), 1e-12) {
		t.Fatalf("merged sum %v != %v", merged.Sum(), whole.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.95} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%v: merged %v != whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
		if !relClose(merged.Quantile(q), Quantile(vals, q), 2*alpha) {
			t.Fatalf("q=%v: merged %v far from true %v", q, merged.Quantile(q), Quantile(vals, q))
		}
	}

	other, _ := NewQuantileSketch(0.05)
	other.Add(1)
	if err := merged.Merge(other); err == nil {
		t.Fatal("merging sketches with different accuracy must fail")
	}
	if err := merged.Merge(nil); err != nil {
		t.Fatalf("merging nil: %v", err)
	}
}

func TestSketchCollapseBoundsMemory(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// ~9 decades need ~1000 buckets at 1%; cap at 256 so the low ~75% of
	// the mass collapses while the upper quantiles keep their buckets.
	s.maxBuckets = 256
	rng := rand.New(rand.NewSource(3))
	var vals []float64
	for i := 0; i < 50000; i++ {
		v := math.Exp(rng.Float64()*20 - 10)
		vals = append(vals, v)
		s.Add(v)
	}
	if len(s.keys) > 256 {
		t.Fatalf("bucket cap not enforced: %d", len(s.keys))
	}
	// Upper quantiles stay accurate even after collapsing low buckets.
	for _, q := range []float64{0.9, 0.99} {
		want := Quantile(vals, q)
		if !relClose(s.Quantile(q), want, 0.01) {
			t.Fatalf("q=%v after collapse: got %v want %v", q, s.Quantile(q), want)
		}
	}
}

// TestSketchSerializeRoundTripProperty is the checkpoint contract: for
// random value streams across several distributions, serialize → deserialize
// must reproduce the sketch exactly, and merging deserialized shard-halves
// must answer every quantile within RelativeError of the original stream —
// the property collectord's crash recovery leans on.
func TestSketchSerializeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	draws := []func() float64{
		func() float64 { return rng.Float64() * 1000 },
		func() float64 { return math.Exp(4 + rng.NormFloat64()*2) },
		func() float64 { return 5 / math.Pow(rng.Float64()+1e-9, 1.2) },
		func() float64 { return float64(rng.Intn(3)) }, // exercises the zero bucket
	}
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	for trial := 0; trial < 40; trial++ {
		alpha := []float64{0.005, 0.01, 0.02, 0.05}[trial%4]
		draw := draws[trial%len(draws)]
		n := 1 + rng.Intn(20000)
		whole, _ := NewQuantileSketch(alpha)
		left, _ := NewQuantileSketch(alpha)
		right, _ := NewQuantileSketch(alpha)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = draw()
			whole.Add(vals[i])
			if i%2 == 0 {
				left.Add(vals[i])
			} else {
				right.Add(vals[i])
			}
		}

		// Round trip must be exact: same counts, same quantile answers.
		blob, err := whole.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var restored QuantileSketch
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if restored.Count() != whole.Count() || restored.Sum() != whole.Sum() ||
			restored.Min() != whole.Min() || restored.Max() != whole.Max() {
			t.Fatalf("trial %d: exact counters differ after round trip", trial)
		}
		for _, q := range quantiles {
			if restored.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d: q=%v restored %v != original %v",
					trial, q, restored.Quantile(q), whole.Quantile(q))
			}
		}
		// Determinism: re-marshalling the restored sketch is byte-identical.
		blob2, _ := restored.MarshalBinary()
		if string(blob) != string(blob2) {
			t.Fatalf("trial %d: marshal not deterministic", trial)
		}

		// Deserialize two halves and Merge: quantiles within the sketch
		// guarantee of the whole-stream original (2x for interpolation
		// spanning adjacent buckets, as elsewhere in this file).
		lb, _ := left.MarshalBinary()
		rb, _ := right.MarshalBinary()
		var lr, rr QuantileSketch
		if err := lr.UnmarshalBinary(lb); err != nil {
			t.Fatal(err)
		}
		if err := rr.UnmarshalBinary(rb); err != nil {
			t.Fatal(err)
		}
		if err := lr.Merge(&rr); err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		if lr.Count() != whole.Count() {
			t.Fatalf("trial %d: merged count %d != %d", trial, lr.Count(), whole.Count())
		}
		for _, q := range quantiles {
			want := whole.Quantile(q)
			got := lr.Quantile(q)
			if !relClose(got, want, 2*alpha) {
				t.Fatalf("trial %d: q=%v merged %v vs original %v (alpha %v)",
					trial, q, got, want, alpha)
			}
		}
	}
}

func TestSketchUnmarshalRejectsCorrupt(t *testing.T) {
	s, _ := NewQuantileSketch(0.01)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	blob, _ := s.MarshalBinary()
	var out QuantileSketch
	for _, tc := range [][]byte{
		nil,
		blob[:10],
		append([]byte{}, blob[:len(blob)-3]...), // truncated bucket table
	} {
		if err := out.UnmarshalBinary(tc); err == nil {
			t.Fatalf("corrupt blob of %d bytes accepted", len(tc))
		}
	}
	bad := append([]byte{}, blob...)
	bad[0] = 99 // unknown version
	if err := out.UnmarshalBinary(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	bad = append([]byte{}, blob...)
	bad[21] ^= 0xff // count no longer matches bucket totals
	if err := out.UnmarshalBinary(bad); err == nil {
		t.Fatal("inconsistent count accepted")
	}
	// Bucket tables no version wrote: an empty bucket, counts that wrap
	// around to agree with the total.
	for name, tc := range map[string]struct {
		keys   []int
		counts []uint64
	}{
		"empty":    {[]int{3, 5}, []uint64{0, 2}},
		"overflow": {[]int{3, 5}, []uint64{1 << 63, 1 << 63}},
	} {
		blob := buildSketchBlob(0.01, 1024, 0, tc.keys, tc.counts, 10, 1, 5)
		if err := out.UnmarshalBinary(blob); err == nil {
			t.Fatalf("%s bucket table accepted", name)
		}
	}
}

// TestSketchUnmarshalCanonicalises restores bucket tables with keys out of
// order or repeated, as the map-backed store wrote for sketches holding +Inf:
// the restored sketch holds them sorted and summed, and re-marshals to the
// table MarshalBinary would have written.
func TestSketchUnmarshalCanonicalises(t *testing.T) {
	for name, tc := range map[string]struct {
		keys, wantKeys     []int
		counts, wantCounts []uint64
	}{
		"unsorted":  {[]int{5, 3}, []int{3, 5}, []uint64{1, 2}, []uint64{2, 1}},
		"duplicate": {[]int{0, -34, 0, 116}, []int{-34, 0, 116}, []uint64{1, 1, 2, 1}, []uint64{1, 3, 1}},
	} {
		var s QuantileSketch
		if err := s.UnmarshalBinary(buildSketchBlob(0.01, 1024, 2, tc.keys, tc.counts, 10, 0, 5)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := buildSketchBlob(0.01, 1024, 2, tc.wantKeys, tc.wantCounts, 10, 0, 5); !bytes.Equal(got, want) {
			t.Fatalf("%s: re-marshalled as\n %x\nwant\n %x", name, got, want)
		}
	}
}

// TestSketchRestoresMapStoreInfinity restores what the map-backed store
// wrote for sketches holding +Inf — beside a value below 1, where the legacy
// +Inf key sorts out of order, and beside a 1, where it repeats key 0 — so a
// checkpoint or peer state from that version still loads, keeps every
// sample, and is stable under further round trips.
func TestSketchRestoresMapStoreInfinity(t *testing.T) {
	for _, vals := range [][]float64{{math.Inf(1), 0.5, 10}, {math.Inf(1), 1, 1, 10}} {
		ref := newRefSketch(DefaultSketchRelErr)
		for _, v := range vals {
			ref.Add(v)
		}
		var s QuantileSketch
		if err := s.UnmarshalBinary(ref.MarshalBinary()); err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if s.Count() != uint64(len(vals)) || !math.IsInf(s.Quantile(1), 1) {
			t.Fatalf("%v: restored count %d, max %v", vals, s.Count(), s.Quantile(1))
		}
		for i := 1; i < len(s.keys); i++ {
			if s.keys[i] <= s.keys[i-1] {
				t.Fatalf("%v: restored keys %v not strictly increasing", vals, s.keys)
			}
		}
		checkRoundTrip(t, &s)
	}
}

func TestSketchClone(t *testing.T) {
	s, _ := NewQuantileSketch(0.01)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	c := s.Clone()
	c.Add(1e9)
	if s.Max() == c.Max() {
		t.Fatal("clone shares state with original")
	}
	if s.Quantile(0.5) != c.Quantile(0.4) && s.Count() != 100 {
		t.Fatal("original mutated by clone")
	}
}
