package stats

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// QuantileSketch is a fixed-size streaming quantile estimator with a bounded
// relative error, in the style of DDSketch (Masson et al., VLDB 2019):
// positive values are counted into logarithmically-spaced buckets, so any
// quantile is answered to within a configurable relative accuracy using
// memory that depends only on the value range, never on the stream length.
//
// Sketches with the same relative error merge losslessly, which is what lets
// the collector's shards aggregate independently and still converge to the
// batch pipeline's answers. Count, Sum, Min and Max are tracked exactly.
//
// The buckets are two parallel arrays sorted by key, holding only nonzero
// buckets; they are the only store. Quantile is an allocation-free scan and
// Merge a linear two-way merge. In front of the arrays sits an index from
// key offset to position, so that Add, once a group's keys have settled, is
// an index and an increment. The index is built lazily: any change to the
// keys empties it, and Add rebuilds it only after as many adds have found
// an existing key by binary search as there are keys, so each rebuild is
// paid for by that many lookups. It is built only while the keys span at
// most 4n+64 for n keys, which bounds it at 8 bytes per bucket plus 128
// bytes however far apart hostile keys lie (DESIGN §19).
//
// A QuantileSketch is not safe for concurrent use; the collector gives each
// shard its own and merges snapshots.
type QuantileSketch struct {
	alpha      float64 // guaranteed relative error
	gamma      float64 // bucket growth factor (1+alpha)/(1-alpha)
	logGamma   float64
	maxBuckets int

	keys   []int32  // strictly increasing bucket keys
	counts []uint64 // counts[i] > 0 samples in bucket keys[i]
	zero   uint64   // values <= 0 (PTT and throughput never are, but be safe)
	count  uint64
	sum    float64
	min    float64
	max    float64
	ix     *keyIndex // nil until a search first finds its key
}

// keyIndex is the sketch's key index. It sits behind a pointer so that a
// sketch, which Clone copies for every snapshot read, stays 128 bytes.
type keyIndex struct {
	// pos[k-lo] is 1 + the position of key k in keys, or 0 when k has no
	// bucket; an empty pos means there is no index.
	pos []uint16
	lo  int32
	// hits counts the searches that found their key since keys last
	// changed.
	hits int
}

// lookup returns 1 + the position of key k, or 0 when the index does not
// know k.
func (ix *keyIndex) lookup(k int32) uint16 {
	if ix == nil {
		return 0
	}
	if d := uint32(k) - uint32(ix.lo); d < uint32(len(ix.pos)) {
		return ix.pos[d]
	}
	return 0
}

// DefaultSketchRelErr is the collector's default quantile accuracy: estimates
// are within 1% of the true value.
const DefaultSketchRelErr = 0.01

// NewQuantileSketch builds a sketch guaranteeing the given relative error
// (0 < relErr < 1). At 1% error the full 1 µs – 10 min latency range fits in
// well under 1024 buckets, the default cap; if the cap is ever hit the lowest
// buckets collapse together, preserving accuracy for upper quantiles. An
// error so small that the keys of the finite float64 range overflow the wire
// format's int32 (below about 1.7e-7) is rejected.
func NewQuantileSketch(relErr float64) (*QuantileSketch, error) {
	if !(relErr > 0 && relErr < 1) { // also rejects NaN
		return nil, fmt.Errorf("stats: sketch relative error must be in (0,1), got %v", relErr)
	}
	gamma := (1 + relErr) / (1 - relErr)
	logGamma := math.Log(gamma)
	lo := math.Ceil(math.Log(math.SmallestNonzeroFloat64) / logGamma)
	hi := math.Ceil(math.Log(math.MaxFloat64) / logGamma)
	if lo < math.MinInt32 || hi > math.MaxInt32 {
		return nil, fmt.Errorf("stats: sketch relative error %v needs bucket keys beyond int32", relErr)
	}
	return &QuantileSketch{
		alpha:      relErr,
		gamma:      gamma,
		logGamma:   logGamma,
		maxBuckets: 1024,
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}, nil
}

// RelativeError returns the sketch's guaranteed quantile accuracy.
func (s *QuantileSketch) RelativeError() float64 { return s.alpha }

// Add records one sample.
func (s *QuantileSketch) Add(v float64) {
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
	k := s.key(v)
	if p := s.ix.lookup(k); p != 0 {
		s.counts[p-1]++
	} else if i, found := s.search(k); found {
		s.counts[i]++
		if s.ix == nil {
			s.ix = new(keyIndex)
		}
		if s.ix.hits++; s.ix.hits >= len(s.keys) {
			s.buildIndex()
		}
	} else {
		s.setBuckets(slices.Insert(s.keys, i, k), slices.Insert(s.counts, i, 1))
	}
	if len(s.keys) > s.maxBuckets {
		s.collapse(1)
	}
}

// key maps a positive value to its bucket index: the unique k with
// gamma^(k-1) < v <= gamma^k. +Inf shares the bucket of the largest finite
// value; NewQuantileSketch guarantees every key fits an int32.
func (s *QuantileSketch) key(v float64) int32 {
	if v > math.MaxFloat64 {
		v = math.MaxFloat64
	}
	return int32(math.Ceil(math.Log(v) / s.logGamma))
}

// search returns the index of the first key not below k, and whether that
// key is k. Each halving step is arithmetic, not a branch: Add runs once per
// ingested record with keys in no particular order, so a branch per
// comparison would mispredict about half the time. Against
// slices.BinarySearch this cut recover_cold's CPU per record by 14 %
// (DESIGN §19).
func (s *QuantileSketch) search(k int32) (int, bool) {
	keys := s.keys
	base, n := 0, len(keys)
	for n > 1 {
		half := n >> 1
		// -1 when keys[base+half-1] < k, else 0.
		less := (int64(keys[base+half-1]) - int64(k)) >> 63
		base += half & int(less)
		n -= half
	}
	if n == 1 && keys[base] < k {
		base++
	}
	return base, base < len(keys) && keys[base] == k
}

// The index spans at most idxSpanPerKey*len(keys)+idxSpanSlack keys, and
// positions up to idxMaxKeys-1 fit its uint16 entries; past that many keys
// the search is the only path.
const (
	idxSpanPerKey = 4
	idxSpanSlack  = 64
	idxMaxKeys    = math.MaxUint16
)

// setBuckets installs new bucket arrays. Every change to keys goes through
// it, because it empties the index, whose positions would otherwise point
// at the wrong buckets.
func (s *QuantileSketch) setBuckets(keys []int32, counts []uint64) {
	s.keys, s.counts = keys, counts
	if s.ix != nil {
		s.ix.pos = s.ix.pos[:0]
		s.ix.hits = 0
	}
}

// buildIndex maps every key to its position, if the keys span few enough
// buckets. An index array larger than the bound is dropped, not reused.
// Add calls it only after a search found a key, so keys is not empty.
func (s *QuantileSketch) buildIndex() {
	ix := s.ix
	ix.hits = 0
	n := len(s.keys)
	if n >= idxMaxKeys {
		return
	}
	limit := idxSpanPerKey*n + idxSpanSlack
	span := int(int64(s.keys[n-1]) - int64(s.keys[0]) + 1)
	if span > limit {
		return
	}
	if cap(ix.pos) < span || cap(ix.pos) > limit {
		ix.pos = make([]uint16, span)
	} else {
		ix.pos = ix.pos[:span]
		clear(ix.pos)
	}
	ix.lo = s.keys[0]
	for i, k := range s.keys {
		ix.pos[k-ix.lo] = uint16(i + 1)
	}
}

// value is the representative of bucket k — the midpoint 2*gamma^k/(gamma+1),
// within alpha of every value the bucket covers.
func (s *QuantileSketch) value(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// collapse folds the n lowest buckets into the one above them — n merges of
// the two lowest, bounding memory at the cost of low-quantile accuracy (the
// standard DDSketch trade).
func (s *QuantileSketch) collapse(n int) {
	for i := 0; i < n; i++ {
		s.counts[n] += s.counts[i]
	}
	s.setBuckets(slices.Delete(s.keys, 0, n), slices.Delete(s.counts, 0, n))
}

// Count returns the exact number of samples added.
func (s *QuantileSketch) Count() uint64 { return s.count }

// Sum returns the exact sum of samples added.
func (s *QuantileSketch) Sum() float64 { return s.sum }

// Mean returns the exact mean, or NaN for an empty sketch.
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// Min returns the exact minimum, or NaN for an empty sketch.
func (s *QuantileSketch) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum, or NaN for an empty sketch.
func (s *QuantileSketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns the estimated q-quantile (0 <= q <= 1), within the
// sketch's relative error of the true value. It returns NaN when empty.
// Like Quantile over raw samples, it interpolates between closest ranks,
// so sketch and batch answers share rank semantics and differ only by the
// bucket error.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	pos := q*float64(s.count-1) + 1 // continuous 1-based rank
	lo := math.Floor(pos)
	frac := pos - lo
	vlo := s.valueAtRank(uint64(lo))
	if frac == 0 {
		return vlo
	}
	vhi := s.valueAtRank(uint64(lo) + 1)
	return vlo + (vhi-vlo)*frac
}

// valueAtRank returns the representative value of the bucket holding the
// given 1-based rank.
func (s *QuantileSketch) valueAtRank(rank uint64) float64 {
	if rank <= s.zero {
		return 0
	}
	seen := s.zero
	for i, c := range s.counts {
		seen += c
		if seen >= rank {
			v := s.value(s.keys[i])
			// The exact extremes tighten the bucket estimate at the tails.
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

// Merge folds other into s. Both sketches must share the same relative
// error so buckets align exactly; other is left untouched.
func (s *QuantileSketch) Merge(other *QuantileSketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.gamma != s.gamma {
		return fmt.Errorf("stats: cannot merge sketches with different accuracy (%v vs %v)", s.alpha, other.alpha)
	}
	s.mergeBuckets(other.keys, other.counts)
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	if excess := len(s.keys) - s.maxBuckets; excess > 0 {
		s.collapse(excess)
	}
	return nil
}

// mergeBuckets adds the sorted buckets (keys, counts) into s's: it counts
// the union, grows s's arrays to it once, and merges from the back, so each
// element moves at most once and nothing is written before it is read.
func (s *QuantileSketch) mergeBuckets(keys []int32, counts []uint64) {
	n := len(s.keys)
	for i, j := 0, 0; j < len(keys); {
		switch {
		case i == len(s.keys) || keys[j] < s.keys[i]:
			n++
			j++
		case keys[j] == s.keys[i]:
			i++
			j++
		default:
			i++
		}
	}
	i, j := len(s.keys)-1, len(keys)-1
	sk := slices.Grow(s.keys, n-len(s.keys))[:n]
	sc := slices.Grow(s.counts, n-len(s.counts))[:n]
	for w := n - 1; j >= 0; w-- {
		switch {
		case i >= 0 && sk[i] > keys[j]:
			sk[w], sc[w] = sk[i], sc[i]
			i--
		case i >= 0 && sk[i] == keys[j]:
			sk[w], sc[w] = sk[i], sc[i]+counts[j]
			i--
			j--
		default:
			sk[w], sc[w] = keys[j], counts[j]
			j--
		}
	}
	s.setBuckets(sk, sc)
}

// sketchWireVersion guards the MarshalBinary layout; bump on any change.
const sketchWireVersion = 1

// MarshalBinary serialises the sketch's exact state: a sketch restored with
// UnmarshalBinary answers every quantile identically to the original. The
// collector's WAL checkpoints use this to persist shard aggregates, so the
// layout is versioned and little-endian throughout.
func (s *QuantileSketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 1+8+4+8+8+8+8+8+4+len(s.keys)*12)
	buf = append(buf, sketchWireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.alpha))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.maxBuckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.zero)
	buf = binary.LittleEndian.AppendUint64(buf, s.count)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.keys)))
	// Sorted keys keep the encoding deterministic for byte-equality tests.
	for i, k := range s.keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
		buf = binary.LittleEndian.AppendUint64(buf, s.counts[i])
	}
	return buf, nil
}

// UnmarshalBinary restores a sketch serialised by MarshalBinary, replacing
// the receiver's state. It validates the header and the bucket table — no
// empty bucket, counts that add up without overflow — so corrupt checkpoint
// bytes fail loudly instead of producing a silently wrong sketch.
//
// A table whose keys are not strictly increasing is sorted and its duplicate
// keys summed. MarshalBinary never writes one, but the map-backed store
// before it did for any sketch holding +Inf: it filed +Inf under the lowest
// key, which the wire truncated to key 0, written ahead of every other key
// and possibly beside a real key 0. Those samples stay in bucket 0, as that
// version answered after a restart.
func (s *QuantileSketch) UnmarshalBinary(data []byte) error {
	const header = 1 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4
	if len(data) < header {
		return fmt.Errorf("stats: sketch blob too short (%d bytes)", len(data))
	}
	if data[0] != sketchWireVersion {
		return fmt.Errorf("stats: unknown sketch version %d", data[0])
	}
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
	if !(alpha > 0 && alpha < 1) { // also rejects NaN
		return fmt.Errorf("stats: corrupt sketch relative error %v", alpha)
	}
	maxBuckets := int(binary.LittleEndian.Uint32(data[9:]))
	if maxBuckets <= 0 {
		return fmt.Errorf("stats: corrupt sketch bucket cap %d", maxBuckets)
	}
	n := int(binary.LittleEndian.Uint32(data[header-4:]))
	if len(data) != header+n*12 {
		return fmt.Errorf("stats: sketch blob length %d does not match %d buckets", len(data), n)
	}
	fresh, err := NewQuantileSketch(alpha)
	if err != nil {
		return err
	}
	fresh.maxBuckets = maxBuckets
	fresh.zero = binary.LittleEndian.Uint64(data[13:])
	fresh.count = binary.LittleEndian.Uint64(data[21:])
	fresh.sum = math.Float64frombits(binary.LittleEndian.Uint64(data[29:]))
	fresh.min = math.Float64frombits(binary.LittleEndian.Uint64(data[37:]))
	fresh.max = math.Float64frombits(binary.LittleEndian.Uint64(data[45:]))
	var keys []int32
	var counts []uint64
	if n > 0 {
		keys, counts = make([]int32, n), make([]uint64, n)
	}
	total, sorted := fresh.zero, true
	for i := 0; i < n; i++ {
		off := header + i*12
		k := int32(binary.LittleEndian.Uint32(data[off:]))
		c := binary.LittleEndian.Uint64(data[off+4:])
		if c == 0 {
			return fmt.Errorf("stats: corrupt sketch: bucket %d is empty", k)
		}
		if total+c < total {
			return fmt.Errorf("stats: corrupt sketch: bucket counts overflow")
		}
		if i > 0 && k <= keys[i-1] {
			sorted = false
		}
		keys[i], counts[i] = k, c
		total += c
	}
	fresh.setBuckets(keys, counts)
	if total != fresh.count {
		return fmt.Errorf("stats: corrupt sketch: buckets hold %d samples, count says %d", total, fresh.count)
	}
	if !sorted {
		fresh.canonicalise()
	}
	*s = *fresh
	return nil
}

// canonicalise sorts the bucket table by key and sums duplicate keys. The
// counts were checked not to overflow in total, so no sum does.
func (s *QuantileSketch) canonicalise() {
	type bucket struct {
		key   int32
		count uint64
	}
	table := make([]bucket, len(s.keys))
	for i := range table {
		table[i] = bucket{s.keys[i], s.counts[i]}
	}
	slices.SortFunc(table, func(a, b bucket) int { return cmp.Compare(a.key, b.key) })
	keys, counts := s.keys[:0], s.counts[:0]
	for _, b := range table {
		if n := len(keys); n > 0 && keys[n-1] == b.key {
			counts[n-1] += b.count
			continue
		}
		keys = append(keys, b.key)
		counts = append(counts, b.count)
	}
	s.setBuckets(keys, counts)
}

// Clone returns an independent copy of the sketch. The copy starts with no
// index: sharing it would let the copy's next build overwrite the
// original's positions.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.ix = nil
	c.setBuckets(slices.Clone(s.keys), slices.Clone(s.counts))
	return &c
}
