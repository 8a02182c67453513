package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkIndex reports the first way s's key index breaks its contract: an
// entry that points at a bucket of another key, a key inside the window
// without its entry, or an index array larger than 4·len(keys)+64 entries,
// 8 bytes per bucket plus 128 bytes.
func checkIndex(s *QuantileSketch) error {
	if indexLen(s) == 0 {
		return nil
	}
	ix := s.ix
	if limit := idxSpanPerKey*len(s.keys) + idxSpanSlack; cap(ix.pos) > limit {
		return fmt.Errorf("index capacity %d over %d for %d keys", cap(ix.pos), limit, len(s.keys))
	}
	for d, p := range ix.pos {
		if p == 0 {
			continue
		}
		if k := ix.lo + int32(d); int(p) > len(s.keys) || s.keys[p-1] != k {
			return fmt.Errorf("index entry for key %d is position %d, which holds another key", k, int(p)-1)
		}
	}
	for i, k := range s.keys {
		if d := int64(k) - int64(ix.lo); d >= 0 && d < int64(len(ix.pos)) && int(ix.pos[d]) != i+1 {
			return fmt.Errorf("key %d at position %d has index entry %d", k, i, ix.pos[d])
		}
	}
	return nil
}

// indexLen is the number of keys s's index spans, 0 when it has none.
func indexLen(s *QuantileSketch) int {
	if s.ix == nil {
		return 0
	}
	return len(s.ix.pos)
}

// addKey adds the midpoint of bucket k, whose key is k on both stores.
func addKey(s *QuantileSketch, ref *refSketch, k int32) {
	v := s.value(k)
	s.Add(v)
	ref.Add(v)
}

// TestSketchCloneHasOwnIndex indexes a sketch, clones it, and makes the
// clone insert keys between the original's and rebuild its index. Were the
// index array shared, that rebuild would rewrite the original's positions
// and its next adds would land in the wrong buckets.
func TestSketchCloneHasOwnIndex(t *testing.T) {
	s, _ := NewQuantileSketch(DefaultSketchRelErr)
	ref := newRefSketch(DefaultSketchRelErr)
	for pass := 0; pass < 3; pass++ {
		for k := int32(100); k < 300; k += 2 {
			addKey(s, ref, k)
		}
	}
	if indexLen(s) == 0 {
		t.Fatal("no index after three passes over the same keys")
	}
	// The clone's keys stay inside the original's span, so its rebuild
	// fits the original's index array.
	c, cref := s.Clone(), ref.Clone()
	for pass := 0; pass < 4; pass++ {
		for k := int32(101); k < 298; k += 2 {
			addKey(c, cref, k)
		}
	}
	if indexLen(c) == 0 {
		t.Fatal("the clone built no index")
	}
	for k := int32(100); k < 300; k += 2 {
		addKey(s, ref, k)
	}
	for _, x := range []struct {
		name string
		s    *QuantileSketch
		ref  *refSketch
	}{{"original", s, ref}, {"clone", c, cref}} {
		if err := sameAsRef(x.s, x.ref); err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		if err := checkIndex(x.s); err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
	}
}

// TestSketchIndexShrinksWithKeys indexes 300 keys, then lowers the cap to 8
// and adds the top key until the sketch has collapsed to 8 keys and built
// its index again. The 300-key index array is over the bound for 8 keys, so
// the rebuild must drop it rather than reuse it.
func TestSketchIndexShrinksWithKeys(t *testing.T) {
	s, _ := NewQuantileSketch(DefaultSketchRelErr)
	ref := newRefSketch(DefaultSketchRelErr)
	for pass := 0; pass < 2; pass++ {
		for k := int32(0); k < 300; k++ {
			addKey(s, ref, k)
		}
	}
	if indexLen(s) == 0 {
		t.Fatal("no index after two passes over the same keys")
	}
	s.maxBuckets, ref.maxBuckets = 8, 8
	for i := 0; i < 300; i++ {
		addKey(s, ref, 299)
	}
	if indexLen(s) == 0 {
		t.Fatal("no index after the collapse")
	}
	if err := sameAsRef(s, ref); err != nil {
		t.Fatal(err)
	}
	if err := checkIndex(s); err != nil {
		t.Fatal(err)
	}
}

// TestSketchIndexPositionsPastUint16 restores a sketch of 70 000
// consecutive keys under a cap of 70 000, which UnmarshalBinary accepts,
// and adds across all of them twice. Positions past 65 534 do not fit the
// index's uint16 entries, so such a sketch must keep to the search.
func TestSketchIndexPositionsPastUint16(t *testing.T) {
	const n = 70000
	keys := make([]int, n)
	counts := make([]uint64, n)
	for i := range keys {
		keys[i], counts[i] = i-n/2, 1
	}
	blob := buildSketchBlob(DefaultSketchRelErr, n, 0, keys, counts, 0, 1e-300, 1e300)
	s := sketchFromBlob(t, blob)
	ref := unmarshalRef(blob)
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			addKey(s, ref, int32(k))
		}
	}
	if err := sameAsRef(s, ref); err != nil {
		t.Fatal(err)
	}
	if err := checkIndex(s); err != nil {
		t.Fatal(err)
	}
}

// FuzzSketchOps runs a script the fuzz bytes choose on two sketches beside
// their map-backed references. Each op byte picks a slot and one of: a run
// of adds (up to 16 values, repeated up to 256 times, each value a key from
// a narrow range, one of refScriptValue's draws or raw float bits), a
// merge of the other slot, a clone over the other slot, a marshal round trip
// over the receiver, or a new bucket cap. After every op both slots must
// match their references and satisfy checkIndex.
func FuzzSketchOps(f *testing.F) {
	narrow := []byte{0, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 40}
	f.Add(narrow)
	f.Add(append(append(append([]byte{}, narrow...), 5, 0x10, 13, 5), narrow...))
	f.Add(append(append([]byte{}, narrow...), 0x16, 4, 0x12, 1, 0xa0, 0xe0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0xff, 0x16, 8, 6, 0x14))
	f.Add(append(append([]byte{}, narrow...), 7, 2, 0, 16, 63, 62, 61, 60, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		var got [2]*QuantileSketch
		var ref [2]*refSketch
		for i := range got {
			got[i], _ = NewQuantileSketch(DefaultSketchRelErr)
			ref[i] = newRefSketch(DefaultSketchRelErr)
		}
		value := func() float64 {
			switch c := next(); {
			case c < 0xa0:
				return got[0].value(200 + int32(c%64))
			case c < 0xe0:
				return refScriptValue(r)
			}
			var raw [8]byte
			for k := range raw {
				raw[k] = next()
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
		for ops := 0; len(data) > 0; ops++ {
			op := next()
			i := int(op>>4) & 1
			j := 1 - i
			switch op & 7 {
			case 0, 1, 2, 3:
				vals := make([]float64, 1+next()%16)
				for k := range vals {
					if vals[k] = value(); math.IsInf(vals[k], 1) {
						// refSketch files +Inf under the lowest key, the
						// map store's bug that the sketch fixed.
						vals[k] = math.MaxFloat64
					}
				}
				for rep := 1 + int(next()); rep > 0; rep-- {
					for _, v := range vals {
						got[i].Add(v)
						ref[i].Add(v)
					}
				}
			case 4:
				if err := got[i].Merge(got[j]); err != nil {
					t.Fatal(err)
				}
				if err := ref[i].Merge(ref[j]); err != nil {
					t.Fatal(err)
				}
			case 5:
				got[j], ref[j] = got[i].Clone(), ref[i].Clone()
			case 6:
				blob, err := got[i].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := got[i].UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				ref[i] = unmarshalRef(blob)
			case 7:
				c := []int{1, 2, 3, 4, 5, 6, 7, 8, 1024}[next()%9]
				got[i].maxBuckets, ref[i].maxBuckets = c, c
			}
			for k := range got {
				if err := sameAsRef(got[k], ref[k]); err != nil {
					t.Fatalf("op %d (%#x), slot %d: %v", ops, op, k, err)
				}
				if err := checkIndex(got[k]); err != nil {
					t.Fatalf("op %d (%#x), slot %d: %v", ops, op, k, err)
				}
			}
		}
	})
}
