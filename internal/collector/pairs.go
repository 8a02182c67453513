package collector

import (
	"math/bits"
	"math/rand/v2"

	"starlinkview/internal/dataset"
)

// pairIndex numbers the distinct (city entry, ISP entry) pairs of a view —
// the (city, ISP) groups its rows name — densely, in the order rows first
// name them, so the partition and the forward split ask "which shard" and
// "which owner" once per group instead of once per row. It is scratch for
// one view at a time, kept across views by its pooled owner: the
// Aggregator's pairPool for the partition, the frameSplitter for the split.
//
// The table is open addressing at most half full, sized for the most pairs
// the view can hold (rows, or city × ISP entries when that is fewer), each
// slot a pair's number plus one (0 is empty) with the pair's key beside it
// in keys. A seeded hash keeps the probes short on a hostile frame, so a
// view of n rows costs O(n) time and scratch whatever its dictionaries.
type pairIndex struct {
	of    []int32  // per row: its pair
	first []int32  // per pair: the first row naming it
	count []int32  // per pair: how many rows name it
	keys  []uint64 // per pair: city entry << 32 | ISP entry
	slots []uint32
}

// pairSeeds key the slot hash, drawn once per process; any seeds give the
// same numbering.
var pairSeeds = [2]uint64{rand.Uint64(), rand.Uint64()}

// pairHash mixes key under pairSeeds the way the runtime's map hash mixes
// an integer key where the CPU has no AES: one full 64 × 64-bit multiply,
// folded.
func pairHash(key uint64) uint64 {
	hi, lo := bits.Mul64(key^pairSeeds[0], pairSeeds[1]|1)
	return hi ^ lo
}

// number fills p for v.
func (p *pairIndex) number(v *dataset.BatchView) {
	n := v.Len()
	p.of = growI32(p.of, n)
	p.first, p.count, p.keys = p.first[:0], p.count[:0], p.keys[:0]
	if n == 0 {
		return
	}
	most := min(uint64(n), uint64(v.CityEntries())*uint64(v.ISPEntries()))
	size := 1 << bits.Len64(2*most-1)
	mask := uint64(size - 1)
	if cap(p.slots) < size {
		p.slots = make([]uint32, size)
	} else {
		p.slots = p.slots[:size]
		clear(p.slots)
	}
	var last uint64
	pair := int32(-1)
	for i := 0; i < n; i++ {
		key := uint64(v.CityEntry(i))<<32 | uint64(v.ISPEntry(i))
		if pair < 0 || key != last {
			last = key
			pair = p.lookup(key, mask, i)
		}
		p.of[i] = pair
		p.count[pair]++
	}
}

// lookup returns key's pair, numbering it with row i as its first when it
// is new.
func (p *pairIndex) lookup(key, mask uint64, i int) int32 {
	for j := pairHash(key) & mask; ; j = (j + 1) & mask {
		s := p.slots[j]
		if s == 0 {
			pair := int32(len(p.first))
			p.slots[j] = uint32(pair) + 1
			p.first = append(p.first, int32(i))
			p.count = append(p.count, 0)
			p.keys = append(p.keys, key)
			return pair
		}
		if p.keys[s-1] == key {
			return int32(s - 1)
		}
	}
}

// size is the bytes p holds at capacity.
func (p *pairIndex) size() int {
	return 4*(cap(p.of)+cap(p.first)+cap(p.count)+cap(p.slots)) + 8*cap(p.keys)
}
