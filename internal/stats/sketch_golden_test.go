package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenSketchDigest was computed with the map-backed bucket store the
// sketch shipped with first. Whatever the store, these bytes and bits are
// the checkpoint format and the /snapshot answers, so they must not move.
const goldenSketchDigest = "5e7e5c343027294fe8940e8f8cbcb2135ed52821837ede9b843100a4018ba4a6"

// TestSketchGoldenBytes pins the sketch's observable behaviour over seeded
// streams: the MarshalBinary bytes and the IEEE bits of Quantile on a q grid,
// for plain sketches, clones, two-way merges, and sketches collapsed at a cap
// of 64 buckets both by Add and by Merge.
func TestSketchGoldenBytes(t *testing.T) {
	h := sha256.New()
	qs := []float64{0, 0.001, 0.01, 0.05, 0.1, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	record := func(s *QuantileSketch) {
		t.Helper()
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
		for _, q := range qs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(s.Quantile(q))))
		}
	}
	rng := rand.New(rand.NewSource(2718))
	draws := []func() float64{
		func() float64 { return rng.Float64() * 1000 },
		func() float64 { return math.Exp(4 + rng.NormFloat64()*2) },
		func() float64 { return 5 / math.Pow(rng.Float64()+1e-9, 1.2) },
		func() float64 { return float64(rng.Intn(400000)) / 1000 }, // PTT-shaped, with zeros
		func() float64 { // zeros, negatives and the odd NaN mixed in
			switch rng.Intn(10) {
			case 0:
				return 0
			case 1:
				return -rng.Float64() * 50
			case 2:
				return math.NaN()
			}
			return math.Exp(rng.NormFloat64() * 6)
		},
	}
	newSketch := func(alpha float64) *QuantileSketch {
		s, err := NewQuantileSketch(alpha)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fill := func(s *QuantileSketch, draw func() float64, n int) *QuantileSketch {
		for i := 0; i < n; i++ {
			s.Add(draw())
		}
		return s
	}
	for trial := 0; trial < 30; trial++ {
		alpha := []float64{0.005, 0.01, 0.02, 0.05}[trial%4]
		draw := draws[trial%len(draws)]
		a := fill(newSketch(alpha), draw, 1+rng.Intn(5000))
		b := fill(newSketch(alpha), draws[(trial+1)%len(draws)], rng.Intn(3000))
		record(a)
		record(b)
		m := a.Clone()
		if err := m.Merge(b); err != nil {
			t.Fatal(err)
		}
		record(m)
		record(a) // merging into the clone must leave the original as it was
	}

	// Collapse by Add: twenty decades at 1% want ~2300 buckets.
	wide := func() float64 { return math.Exp(rng.Float64()*46 - 23) }
	c := newSketch(0.01)
	c.maxBuckets = 64
	record(fill(c, wide, 20000))
	// Collapse by Merge: a wide uncapped sketch folded into a capped one.
	d := newSketch(0.01)
	d.maxBuckets = 64
	if err := d.Merge(fill(newSketch(0.01), wide, 20000)); err != nil {
		t.Fatal(err)
	}
	record(d)
	// And a capped sketch merged into a capped one, then grown past the cap.
	if err := d.Merge(c); err != nil {
		t.Fatal(err)
	}
	record(fill(d, wide, 500))

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSketchDigest {
		t.Fatalf("sketch golden digest %s, want %s", got, goldenSketchDigest)
	}
}
