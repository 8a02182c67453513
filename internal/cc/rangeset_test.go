package cc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// covers reports whether the byte at off is inside the set.
func (s *rangeSet) covers(off int64) bool {
	for _, r := range s.rs {
		if off >= r.Start && off < r.End {
			return true
		}
	}
	return false
}

// refSet is a brute-force reference model of rangeSet: a boolean per byte.
type refSet map[int64]bool

func (r refSet) add(start, end int64) {
	for i := start; i < end; i++ {
		r[i] = true
	}
}

func (r refSet) trimBelow(mark int64) {
	for k := range r {
		if k < mark {
			delete(r, k)
		}
	}
}

// popPrefix advances next over covered bytes and drops everything below.
func (r refSet) popPrefix(next int64) int64 {
	for r[next] {
		next++
	}
	r.trimBelow(next)
	return next
}

func (r refSet) total() int64 { return int64(len(r)) }

// TestRangeSetMatchesReference drives random operations through both the
// real rangeSet and the brute-force model and demands identical observable
// behaviour, the running byte total included.
func TestRangeSetMatchesReference(t *testing.T) {
	const space = 200 // small byte space keeps the reference cheap
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rs rangeSet
		ref := refSet{}
		for op := 0; op < 60; op++ {
			switch rng.Intn(8) {
			case 0, 1, 2: // add
				start := int64(rng.Intn(space))
				end := start + int64(rng.Intn(space/4))
				rs.add(start, end)
				ref.add(start, end)
			case 3: // trim
				mark := int64(rng.Intn(space))
				rs.trimBelow(mark)
				ref.trimBelow(mark)
			case 4: // the receiver's prefix pop
				next := int64(rng.Intn(space))
				if got, want := rs.popPrefix(next), ref.popPrefix(next); got != want {
					t.Logf("seed %d op %d: popPrefix(%d) = %d, ref %d", seed, op, next, got, want)
					return false
				}
			case 5: // clear, rarely, so the sets grow between clears
				if rng.Intn(4) == 0 {
					rs.clear()
					clear(ref)
				}
			default: // binary search
				off := int64(rng.Intn(space+2)) - 1
				want := 0
				for want < len(rs.rs) && rs.rs[want].End <= off {
					want++
				}
				if got := rs.after(off); got != want {
					t.Logf("seed %d op %d: after(%d) = %d, linear scan %d", seed, op, off, got, want)
					return false
				}
			}
			// Invariants after every operation.
			if rs.total() != ref.total() {
				t.Logf("seed %d op %d: total %d != ref %d", seed, op, rs.total(), ref.total())
				return false
			}
			for off := int64(0); off < space; off++ {
				if rs.covers(off) != ref[off] {
					t.Logf("seed %d op %d: covers(%d) = %v, ref %v", seed, op, off, rs.covers(off), ref[off])
					return false
				}
			}
			// Structural invariants: sorted, disjoint, non-empty ranges.
			for i, r := range rs.rs {
				if r.End <= r.Start {
					t.Logf("empty range %+v", r)
					return false
				}
				if i > 0 && rs.rs[i-1].End >= r.Start {
					t.Logf("overlapping/touching ranges %+v %+v", rs.rs[i-1], r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeSetAddMerges(t *testing.T) {
	var s rangeSet
	s.add(10, 20)
	s.add(30, 40)
	if len(s.rs) != 2 {
		t.Fatalf("ranges = %d, want 2", len(s.rs))
	}
	s.add(20, 30) // exactly bridges the gap
	if len(s.rs) != 1 || s.rs[0] != (byteRange{Start: 10, End: 40}) {
		t.Fatalf("merge failed: %+v", s.rs)
	}
	s.add(5, 45) // superset absorbs
	if len(s.rs) != 1 || s.rs[0] != (byteRange{Start: 5, End: 45}) {
		t.Fatalf("superset failed: %+v", s.rs)
	}
}

func TestRangeSetAddEmptyAndClear(t *testing.T) {
	var s rangeSet
	s.add(10, 10) // empty
	s.add(10, 5)  // inverted
	if len(s.rs) != 0 {
		t.Fatalf("degenerate adds created ranges: %+v", s.rs)
	}
	s.add(1, 4)
	s.clear()
	if s.total() != 0 {
		t.Fatal("clear failed")
	}
}

func TestRangeSetTrimPartial(t *testing.T) {
	var s rangeSet
	s.add(10, 30)
	s.trimBelow(20)
	if s.total() != 10 || !s.covers(20) || s.covers(19) {
		t.Fatalf("partial trim wrong: %+v", s.rs)
	}
	s.trimBelow(100)
	if s.total() != 0 {
		t.Fatal("full trim failed")
	}
}
