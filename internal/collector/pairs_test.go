package collector

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
)

// pairFrame turns bytes into a frame and a shard count: b[0] picks the
// shard count, b[1] which of the city and ISP dictionaries write their
// entries twice, b[2] and b[3] how many cities and ISPs the rows draw from,
// and each later pair of bytes one row's city and ISP.
func pairFrame(t *testing.T, b []byte) ([]byte, int) {
	t.Helper()
	var hdr [4]byte
	copy(hdr[:], b)
	b = b[min(len(b), 4):]
	nsh, nc, ni := 1+int(hdr[0]%16), 1+int(hdr[2]), 1+int(hdr[3])
	recs := make([]extension.Record, len(b)/2)
	for i := range recs {
		recs[i] = extension.Record{
			City: fmt.Sprintf("c%d", int(b[2*i])%nc), ISP: fmt.Sprintf("i%d", int(b[2*i+1])%ni),
			Domain: fmt.Sprintf("d%d", i%5), At: time.Unix(1700000000, 0), PTTMs: float64(i),
		}
	}
	frame := dataset.MarshalBatch(recs)
	var cols []byte
	if hdr[1]&1 != 0 {
		cols = append(cols, 1)
	}
	if hdr[1]&2 != 0 {
		cols = append(cols, 3)
	}
	if len(cols) > 0 {
		frame = withRepeatedDictEntries(t, frame, cols...)
	}
	return frame, nsh
}

// checkPairs holds p, numbered over v, to its contract: two rows share a
// pair exactly when they name the same (city, ISP), pairs are numbered in
// the order rows first name them, and each pair's first row and row count
// are right.
func checkPairs(t *testing.T, p *pairIndex, v *dataset.BatchView) {
	t.Helper()
	if len(p.of) != v.Len() || len(p.count) != len(p.first) || len(p.keys) != len(p.first) {
		t.Fatalf("%d rows numbered of %d; %d counts and %d keys for %d pairs",
			len(p.of), v.Len(), len(p.count), len(p.keys), len(p.first))
	}
	pairOf := make(map[extKey]int32)
	count := make([]int32, len(p.first))
	for i, got := range p.of {
		k := extKey{v.City(i), v.ISP(i)}
		want, ok := pairOf[k]
		if !ok {
			want = int32(len(pairOf))
			pairOf[k] = want
			if int(want) >= len(p.first) || p.first[want] != int32(i) {
				t.Fatalf("row %d is the first to name pair %d, but first = %v", i, want, p.first[:min(len(p.first), 8)])
			}
		}
		if got != want {
			t.Fatalf("row %d (%q, %q) is pair %d, want %d", i, k.City, k.ISP, got, want)
		}
		count[got]++
	}
	if len(pairOf) != len(p.first) || !slices.Equal(count, p.count) {
		t.Fatalf("%d pairs numbered, want %d; counts %v, want %v",
			len(p.first), len(pairOf), p.count[:min(len(p.count), 8)], count[:min(len(count), 8)])
	}
}

// checkPartition partitions v over nsh shards and holds the result to the
// contract: every row exactly once, each in shard shardHash % nsh, and each
// (city, ISP) group's rows contiguous and ascending. It returns the bytes
// the partition's scratch holds, counting a pairIndex numbered like the one
// the partition borrowed.
func checkPartition(t *testing.T, v *dataset.BatchView, nsh int) int {
	t.Helper()
	a := &Aggregator{shards: make([]*shard, nsh)}
	var pairs pairIndex
	pairs.number(v)
	checkPairs(t, &pairs, v)
	b := &batchApply{agg: a, view: v}
	b.partition()
	n := v.Len()
	if len(b.rows) != n || len(b.offs) != nsh+1 || b.offs[0] != 0 || int(b.offs[nsh]) != n {
		t.Fatalf("%d rows, offsets %v, for %d rows over %d shards", len(b.rows), b.offs, n, nsh)
	}
	seen := make([]bool, n)
	ended := make(map[extKey]bool)
	var prev extKey
	prevRow := -1
	for s := 0; s < nsh; s++ {
		for _, r := range b.rows[b.offs[s]:b.offs[s+1]] {
			i := int(r)
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("row %d placed twice or out of range", i)
			}
			seen[i] = true
			k := extKey{v.City(i), v.ISP(i)}
			if want := int(shardHash(k.City, k.ISP) % uint32(nsh)); want != s {
				t.Fatalf("row %d is on shard %d, want %d", i, s, want)
			}
			switch {
			case prevRow >= 0 && k == prev:
				if i <= prevRow {
					t.Fatalf("group (%q, %q): row %d follows row %d", k.City, k.ISP, i, prevRow)
				}
			case ended[k]:
				t.Fatalf("group (%q, %q) is split: row %d comes after another group", k.City, k.ISP, i)
			case prevRow >= 0:
				ended[prev] = true
			}
			prev, prevRow = k, i
		}
	}
	return pairs.size() + 4*(cap(b.rows)+cap(b.offs)+cap(b.shardOf)+cap(b.next))
}

// TestPartitionProperties runs the partition contract over seeded frames:
// from one row to thousands, few or many cities and ISPs, dictionaries that
// repeat entries, and 1 to 16 shards.
func TestPartitionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for k := 0; k < 200; k++ {
		b := make([]byte, 4+2*r.Intn([]int{4, 64, 3000}[k%3]))
		r.Read(b)
		frame, nsh := pairFrame(t, b)
		v, err := dataset.ParseBatchView(frame)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, v, nsh)
	}
}

// distinctPairsFrame is a hostile frame: n rows, each its own (city, ISP)
// pair, over 64 cities and n ISP entries.
func distinctPairsFrame(n int) []byte {
	recs := make([]extension.Record, n)
	for i := range recs {
		recs[i] = extension.Record{City: fmt.Sprintf("c%02d", i%64), ISP: fmt.Sprintf("isp-%d", i), At: time.Unix(1700000000, 0)}
	}
	return dataset.MarshalBatch(recs)
}

// TestPartitionScratchLinear holds the partition's scratch to a constant
// number of bytes per row on a 64 Ki-row frame in which every row names its
// own pair: the numbering is linear in the rows, never city × ISP.
func TestPartitionScratchLinear(t *testing.T) {
	const n, perRow = 1 << 16, 64
	v, err := dataset.ParseBatchView(distinctPairsFrame(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := checkPartition(t, v, 7); got > perRow*n {
		t.Fatalf("partition scratch is %d B for %d rows; bound is %d B per row", got, n, perRow)
	}
}

// FuzzPartition drives the partition contract from fuzz bytes, which choose
// the rows, the dictionaries (and whether they repeat entries), the pairs
// and the shard count (see pairFrame).
func FuzzPartition(f *testing.F) {
	f.Add([]byte{3, 0, 9, 2, 1, 1, 2, 0, 1, 1, 7, 1, 2, 0})
	f.Add([]byte{6, 3, 255, 255, 0, 0, 9, 9, 0, 0, 200, 100, 9, 9})
	f.Add([]byte{0, 1, 0, 0, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 8192 {
			return
		}
		frame, nsh := pairFrame(t, b)
		v, err := dataset.ParseBatchView(frame)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, v, nsh)
	})
}

// countingRing is an epochRing that counts the owner lookups it answers.
type countingRing struct {
	epochRing
	lookups int
}

func (f *countingRing) OwnerExtension(city, isp string) string {
	f.lookups++
	return f.epochRing.OwnerExtension(city, isp)
}

// TestSplitMatchesPerRowOwners checks the split, which asks for each (city,
// ISP) pair's owner once, against a per-row OwnerExtension reference: the
// same peers in first-seen row order, each handed exactly its rows'
// records in row order, and the same local rows kept here. Frames are a
// multi-peer mix, one that repeats city and ISP entries, a hostile one of
// 4096 distinct pairs, and one of a single pair; rings have one to four
// owners, with and without this instance. One pooled splitter serves every
// request.
func TestSplitMatchesPerRowOwners(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	single := goldenRecords(r, 200)
	for i := range single {
		single[i].City, single[i].ISP = "Lima", "dsl"
	}
	frames := [][]byte{
		dataset.MarshalBatch(goldenRecords(r, 700)),
		withRepeatedDictEntries(t, dataset.MarshalBatch(goldenRecords(r, 300)), 1, 3),
		distinctPairsFrame(4096),
		dataset.MarshalBatch(single),
	}
	rings := [][]string{{""}, {"", "peer-a"}, {"peer-c", "", "peer-a", "peer-b"}, {"peer-a", "peer-b"}}
	srv := &Server{}
	var views dataset.ViewPool
	for fi, frame := range frames {
		recs, err := dataset.UnmarshalBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		for ri, names := range rings {
			ring := epochRing{names: names, salt: uint32(ri)}
			var order []string
			byPeer := make(map[string][]extension.Record)
			var local []extension.Record
			pairs := make(map[extKey]bool)
			for _, rec := range recs {
				pairs[extKey{rec.City, rec.ISP}] = true
				peer := ring.OwnerExtension(rec.City, rec.ISP)
				if peer == "" {
					local = append(local, rec)
					continue
				}
				if _, ok := byPeer[peer]; !ok {
					order = append(order, peer)
				}
				byPeer[peer] = append(byPeer[peer], rec)
			}

			f := &countingRing{epochRing: ring}
			sp := srv.splitter(f)
			v, err := views.Parse(frame)
			if err != nil {
				t.Fatal(err)
			}
			kept, err := sp.split(&views, v)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("frame %d, ring %v", fi, names)
			if f.lookups != len(pairs) {
				t.Fatalf("%s: %d owner lookups for %d pairs", label, f.lookups, len(pairs))
			}
			var got []string
			for _, pf := range sp.peers {
				got = append(got, pf.peer)
				if pf.records != len(byPeer[pf.peer]) || !bytes.Equal(pf.body, dataset.MarshalBatch(byPeer[pf.peer])) {
					t.Fatalf("%s: %s was handed %d records, not its %d rows in row order",
						label, pf.peer, pf.records, len(byPeer[pf.peer]))
				}
			}
			if !slices.Equal(got, order) {
				t.Fatalf("%s: peers %v, want first-seen order %v", label, got, order)
			}
			switch {
			case len(local) == len(recs):
				if kept != v {
					t.Fatalf("%s: an all-local frame did not come back untouched", label)
				}
			case len(local) == 0:
				if kept != nil {
					t.Fatalf("%s: %d rows kept here, want none", label, kept.Len())
				}
			case !bytes.Equal(kept.Frame(), dataset.MarshalBatch(local)):
				t.Fatalf("%s: the local frame is not this instance's %d rows in row order", label, len(local))
			}
			views.Put(kept)
			srv.releaseSplitter(sp)
		}
	}
}
