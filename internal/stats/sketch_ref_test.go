package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSketch is the sketch's first bucket store, a map from key to count,
// kept as the reference the sorted-array store is checked against. The
// arithmetic is the original's line for line; argument validation is left
// to the real sketch, which every script runs beside it.
type refSketch struct {
	alpha      float64
	gamma      float64
	logGamma   float64
	maxBuckets int

	buckets map[int]uint64
	zero    uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func newRefSketch(relErr float64) *refSketch {
	gamma := (1 + relErr) / (1 - relErr)
	return &refSketch{
		alpha:      relErr,
		gamma:      gamma,
		logGamma:   math.Log(gamma),
		maxBuckets: 1024,
		buckets:    make(map[int]uint64),
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
}

func (s *refSketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= 0 {
		s.zero++
		return
	}
	s.buckets[s.key(v)]++
	if len(s.buckets) > s.maxBuckets {
		s.collapse()
	}
}

func (s *refSketch) key(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

func (s *refSketch) value(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

func (s *refSketch) collapse() {
	keys := s.sortedKeys()
	if len(keys) < 2 {
		return
	}
	s.buckets[keys[1]] += s.buckets[keys[0]]
	delete(s.buckets, keys[0])
}

func (s *refSketch) sortedKeys() []int {
	keys := make([]int, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (s *refSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	pos := q*float64(s.count-1) + 1
	lo := math.Floor(pos)
	frac := pos - lo
	vlo := s.valueAtRank(uint64(lo))
	if frac == 0 {
		return vlo
	}
	vhi := s.valueAtRank(uint64(lo) + 1)
	return vlo + (vhi-vlo)*frac
}

func (s *refSketch) valueAtRank(rank uint64) float64 {
	if rank <= s.zero {
		return 0
	}
	seen := s.zero
	for _, k := range s.sortedKeys() {
		seen += s.buckets[k]
		if seen >= rank {
			v := s.value(k)
			if v < s.min {
				return s.min
			}
			if v > s.max {
				return s.max
			}
			return v
		}
	}
	return s.max
}

func (s *refSketch) Merge(other *refSketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.gamma != s.gamma {
		return fmt.Errorf("different accuracy")
	}
	for k, c := range other.buckets {
		s.buckets[k] += c
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	for len(s.buckets) > s.maxBuckets {
		s.collapse()
	}
	return nil
}

func (s *refSketch) MarshalBinary() []byte {
	buf := make([]byte, 0, 1+8+4+8+8+8+8+8+4+len(s.buckets)*12)
	buf = append(buf, sketchWireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.alpha))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.maxBuckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.zero)
	buf = binary.LittleEndian.AppendUint64(buf, s.count)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.buckets)))
	for _, k := range s.sortedKeys() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(k)))
		buf = binary.LittleEndian.AppendUint64(buf, s.buckets[k])
	}
	return buf
}

// unmarshalRef restores a reference sketch from a blob the real
// UnmarshalBinary already accepted, so only the decoding is repeated here.
func unmarshalRef(data []byte) *refSketch {
	const header = 1 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4
	s := newRefSketch(math.Float64frombits(binary.LittleEndian.Uint64(data[1:])))
	s.maxBuckets = int(binary.LittleEndian.Uint32(data[9:]))
	s.zero = binary.LittleEndian.Uint64(data[13:])
	s.count = binary.LittleEndian.Uint64(data[21:])
	s.sum = math.Float64frombits(binary.LittleEndian.Uint64(data[29:]))
	s.min = math.Float64frombits(binary.LittleEndian.Uint64(data[37:]))
	s.max = math.Float64frombits(binary.LittleEndian.Uint64(data[45:]))
	n := int(binary.LittleEndian.Uint32(data[header-4:]))
	for i := 0; i < n; i++ {
		off := header + i*12
		s.buckets[int(int32(binary.LittleEndian.Uint32(data[off:])))] = binary.LittleEndian.Uint64(data[off+4:])
	}
	return s
}

func (s *refSketch) Clone() *refSketch {
	c := *s
	c.buckets = make(map[int]uint64, len(s.buckets))
	for k, v := range s.buckets {
		c.buckets[k] = v
	}
	return &c
}

// bucket returns the count the sketch holds under key k.
func (s *QuantileSketch) bucket(k int32) uint64 {
	for i, kk := range s.keys {
		if kk == k {
			return s.counts[i]
		}
	}
	return 0
}

// sketchQuantileGrid is where the reference comparisons read Quantile.
var sketchQuantileGrid = []float64{0, 1e-9, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12, 1}

// sameAsRef reports the first observable difference between s and ref: the
// MarshalBinary bytes, or the bits of a Quantile on the grid.
func sameAsRef(s *QuantileSketch, ref *refSketch) error {
	got, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	if want := ref.MarshalBinary(); !bytes.Equal(got, want) {
		return fmt.Errorf("MarshalBinary differs:\n got  %x\n want %x", got, want)
	}
	for _, q := range sketchQuantileGrid {
		g, w := s.Quantile(q), ref.Quantile(q)
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("Quantile(%v) = %v, reference %v", q, g, w)
		}
	}
	return nil
}

// refScriptValue draws the values a script adds: ordinary latencies, and the
// edges — zeros of both signs, negatives, NaN, -Inf, denormals, 1e300 and
// the largest finite float.
func refScriptValue(r *rand.Rand) float64 {
	switch r.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return -r.ExpFloat64() * 100
	case 3:
		return math.NaN()
	case 4:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
	case 5:
		return 1e300 * (1 + r.Float64())
	case 6:
		return math.MaxFloat64
	case 7:
		return math.Inf(-1)
	case 8:
		return math.Exp(r.NormFloat64() * 40)
	}
	return math.Exp(3 + r.NormFloat64()*1.5)
}

// TestSketchMatchesMapReference runs seeded scripts of Add, Merge, Clone and
// MarshalBinary → UnmarshalBinary against the sorted-array sketch and the
// map-backed reference side by side, over several relative errors and bucket
// caps down to one, and requires identical bytes and quantile bits after
// every step.
func TestSketchMatchesMapReference(t *testing.T) {
	const scripts, slots = 600, 3
	for script := 0; script < scripts; script++ {
		r := rand.New(rand.NewSource(int64(script)))
		alpha := []float64{0.005, 0.01, 0.02, 0.05, 0.3}[r.Intn(5)]
		caps := []int{1, 2, 3, 8, 64, 1024}
		var got [slots]*QuantileSketch
		var ref [slots]*refSketch
		for i := range got {
			var err error
			if got[i], err = NewQuantileSketch(alpha); err != nil {
				t.Fatal(err)
			}
			ref[i] = newRefSketch(alpha)
			got[i].maxBuckets = caps[r.Intn(len(caps))]
			ref[i].maxBuckets = got[i].maxBuckets
		}
		steps := 1 + r.Intn(120)
		for step := 0; step < steps; step++ {
			i, j := r.Intn(slots), r.Intn(slots)
			var op string
			switch p := r.Intn(100); {
			case p < 70:
				op = "add"
				for n := 1 + r.Intn(40); n > 0; n-- {
					v := refScriptValue(r)
					got[i].Add(v)
					ref[i].Add(v)
				}
			case p < 85:
				op = fmt.Sprintf("merge %d into %d", j, i)
				if i == j {
					continue // the reference's map would be read while written
				}
				gerr, rerr := got[i].Merge(got[j]), ref[i].Merge(ref[j])
				if (gerr == nil) != (rerr == nil) {
					t.Fatalf("script %d step %d: Merge error %v, reference %v", script, step, gerr, rerr)
				}
			case p < 92:
				op = fmt.Sprintf("clone %d over %d", j, i)
				got[i], ref[i] = got[j].Clone(), ref[j].Clone()
			default:
				op = fmt.Sprintf("round-trip %d", i)
				blob, err := got[i].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var back QuantileSketch
				if err := back.UnmarshalBinary(blob); err != nil {
					t.Fatalf("script %d step %d: unmarshal of own bytes: %v", script, step, err)
				}
				got[i], ref[i] = &back, unmarshalRef(blob)
			}
			// Only slot i changed; a merge's source is checked when the
			// script ends.
			if err := sameAsRef(got[i], ref[i]); err != nil {
				t.Fatalf("script %d step %d (%s): %v", script, step, op, err)
			}
		}
		for k := range got {
			if err := sameAsRef(got[k], ref[k]); err != nil {
				t.Fatalf("script %d end, slot %d: %v", script, k, err)
			}
		}
	}
}

// indexScriptValue draws from a narrow log-normal around exp(mu). At the
// scripts' relative errors its keys span a few hundred buckets, so a run of
// a few thousand adds finds its keys again and again.
func indexScriptValue(r *rand.Rand, mu float64) float64 {
	return math.Exp(mu + r.NormFloat64()*0.5)
}

// indexScriptBurst draws the far edges: denormals, values near 1e300 and the
// largest finite float, whose keys lie tens of thousands of buckets away
// from a latency's.
func indexScriptBurst(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
	case 1:
		return 1e300 * (1 + r.Float64())
	}
	return math.MaxFloat64
}

// TestSketchIndexScriptsMatchMapReference runs scripts made of long runs of
// adds from a narrow log-normal, thousands per run over a few hundred keys,
// so most adds land in a bucket that already exists. Between the runs come a
// clone after which both copies keep adding new and old keys, a merge into a
// sketch that has seen such runs, an UnmarshalBinary over such a sketch,
// runs at caps of 1 to 8 buckets, and bursts of denormals, 1e300 and
// MaxFloat64. After every step the bytes and the quantile bits must equal
// the map-backed reference's, and checkIndex must hold.
func TestSketchIndexScriptsMatchMapReference(t *testing.T) {
	const scripts, slots, steps = 30, 3, 30
	checks, indexed := 0, 0
	for script := 0; script < scripts; script++ {
		r := rand.New(rand.NewSource(int64(1000 + script)))
		alpha := []float64{0.005, 0.01, 0.02}[r.Intn(3)]
		var got [slots]*QuantileSketch
		var ref [slots]*refSketch
		for i := range got {
			var err error
			if got[i], err = NewQuantileSketch(alpha); err != nil {
				t.Fatal(err)
			}
			ref[i] = newRefSketch(alpha)
		}
		mu := 2 + 3*r.Float64()
		run := func(i, n int) {
			m := mu + r.NormFloat64()*0.2 // drift, so a run brings new keys too
			for ; n > 0; n-- {
				v := indexScriptValue(r, m)
				got[i].Add(v)
				ref[i].Add(v)
			}
		}
		check := func(step int, op string, i int) {
			t.Helper()
			if err := sameAsRef(got[i], ref[i]); err != nil {
				t.Fatalf("script %d step %d (%s), slot %d: %v", script, step, op, i, err)
			}
			if err := checkIndex(got[i]); err != nil {
				t.Fatalf("script %d step %d (%s), slot %d: %v", script, step, op, i, err)
			}
			checks++
			if indexLen(got[i]) > 0 {
				indexed++
			}
		}
		for step := 0; step < steps; step++ {
			i := r.Intn(slots)
			j := (i + 1 + r.Intn(slots-1)) % slots
			switch p := r.Intn(10); {
			case p < 4:
				run(i, 1000+r.Intn(3000))
				check(step, "add run", i)
			case p < 5:
				got[j], ref[j] = got[i].Clone(), ref[i].Clone()
				run(i, 500+r.Intn(2000))
				run(j, 500+r.Intn(2000))
				check(step, "clone, then add to both", i)
				check(step, "clone, then add to both", j)
			case p < 6:
				if err := got[i].Merge(got[j]); err != nil {
					t.Fatal(err)
				}
				if err := ref[i].Merge(ref[j]); err != nil {
					t.Fatal(err)
				}
				check(step, fmt.Sprintf("merge %d", j), i)
				run(i, 500+r.Intn(2000))
				check(step, "add after merge", i)
			case p < 7:
				blob, err := got[j].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := got[i].UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				ref[i] = unmarshalRef(blob)
				check(step, fmt.Sprintf("unmarshal %d over", j), i)
				run(i, 500+r.Intn(2000))
				check(step, "add after unmarshal", i)
			case p < 8:
				c := 1 + r.Intn(8)
				got[i].maxBuckets, ref[i].maxBuckets = c, c
				run(i, 200+r.Intn(800))
				check(step, fmt.Sprintf("add run at cap %d", c), i)
				if r.Intn(2) == 0 {
					got[i].maxBuckets, ref[i].maxBuckets = 1024, 1024
				}
			case p < 9 && r.Intn(3) == 0:
				for n := 1 + r.Intn(50); n > 0; n-- {
					v := indexScriptBurst(r)
					got[i].Add(v)
					ref[i].Add(v)
				}
				check(step, "burst", i)
			default:
				// A fresh sketch, so that not every slot ends up spanning
				// the bursts' range.
				var err error
				if got[i], err = NewQuantileSketch(alpha); err != nil {
					t.Fatal(err)
				}
				ref[i] = newRefSketch(alpha)
				run(i, 1000+r.Intn(3000))
				check(step, "fresh add run", i)
			}
		}
		for k := range got {
			check(steps, "end", k)
		}
	}
	// The scripts are only worth their time if the index serves them.
	if indexed < checks/4 {
		t.Fatalf("an index was in place at %d of %d checks", indexed, checks)
	}
}

// canonicalTable reports whether a blob UnmarshalBinary accepted lists its
// buckets by strictly increasing key, as MarshalBinary writes them.
func canonicalTable(data []byte) bool {
	const header = 1 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4
	for off := header + 12; off < len(data); off += 12 {
		if int32(binary.LittleEndian.Uint32(data[off:])) <= int32(binary.LittleEndian.Uint32(data[off-12:])) {
			return false
		}
	}
	return true
}

// FuzzSketchUnmarshal feeds UnmarshalBinary arbitrary bytes. Nothing may
// panic. Any blob it accepts must re-marshal to a canonical form that is
// stable under a further round trip, byte-identical to the input when the
// input was canonical, and then survive quantiles, adds and a merge with its
// own clone.
func FuzzSketchUnmarshal(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, alpha := range []float64{0.01, 0.3} {
		s, _ := NewQuantileSketch(alpha)
		empty, _ := s.MarshalBinary()
		f.Add(empty)
		for i := 0; i < 500; i++ {
			s.Add(refScriptValue(r))
		}
		blob, _ := s.MarshalBinary()
		f.Add(blob)
	}
	f.Add(buildSketchBlob(DefaultSketchRelErr, 1, 0, []int{-5, 3, 9}, []uint64{1, 2, 3}, 40, 1, 9))
	legacy := newRefSketch(DefaultSketchRelErr)
	for _, v := range []float64{math.Inf(1), 0.5, 1, 10} {
		legacy.Add(v)
	}
	f.Add(legacy.MarshalBinary())
	f.Fuzz(func(t *testing.T, data []byte) {
		var s QuantileSketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if canonicalTable(data) && !bytes.Equal(again, data) {
			t.Fatalf("accepted canonical blob re-marshals differently:\n in  %x\n out %x", data, again)
		}
		var back QuantileSketch
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if third, _ := back.MarshalBinary(); !bytes.Equal(third, again) {
			t.Fatalf("canonical form is not stable:\n once  %x\n twice %x", again, third)
		}
		for _, q := range sketchQuantileGrid {
			s.Quantile(q)
		}
		for _, v := range []float64{1, 1e-300, 1e300, math.Inf(1)} {
			s.Add(v)
		}
		if err := s.Merge(s.Clone()); err != nil {
			t.Fatal(err)
		}
		s.Quantile(0.5)
	})
}
