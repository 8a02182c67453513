package dataset

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"starlinkview/internal/extension"
)

// viewRecords materialises every row of v through the per-row accessors.
func viewRecords(v *BatchView) []extension.Record {
	out := make([]extension.Record, v.Len())
	for i := range out {
		v.RecordAt(i, &out[i])
	}
	return out
}

// TestViewPoolReuseAndIntern drives one pool across many frames, releasing
// views between reads, and checks both correctness under buffer reuse and
// that dictionary strings are interned to one canonical instance.
func TestViewPoolReuseAndIntern(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var pool ViewPool
	var firstCity string
	for round := 0; round < 50; round++ {
		n := 1 + r.Intn(200)
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
			recs[i].City = "London" // every frame shares one city
		}
		frame := MarshalBatch(recs)
		v, err := pool.Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := csvWireRoundTrip(t, recs)
		got := viewRecords(v)
		for i := range want {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("round %d record %d differs under pooled reuse", round, i)
			}
		}
		city := v.City(0)
		if firstCity == "" {
			firstCity = city
		}
		// Interned strings are pointer-identical across frames, not just
		// equal.
		if unsafe.StringData(city) != unsafe.StringData(firstCity) {
			t.Fatalf("round %d: interned city %q != %q", round, city, firstCity)
		}
		pool.Put(v)
	}
	// EOF at clean end of stream; torn frame surfaces an error.
	if _, err := pool.Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	frame := MarshalBatch([]extension.Record{randBatchRecord(r)})
	if _, err := pool.Read(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Fatal("torn frame accepted")
	}
	// Parse copies the caller's frame: mutating it afterwards must not
	// affect the view.
	v, err := pool.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[10] ^= 0xff
	if v.Len() != 1 {
		t.Fatalf("parsed view has %d records", v.Len())
	}
	pool.Put(v)
}

// internOne interns b alone, as a one-entry dictionary.
func internOne(in *Interner, b []byte) string {
	dst := make([]string, 1)
	in.intern(dst, b, []dictSpan{{0, uint32(len(b))}})
	return dst[0]
}

// TestInternerCapsGrowth pins the intern-table bound: past the cap, intern
// still returns correct strings, it just stops deduplicating.
func TestInternerCapsGrowth(t *testing.T) {
	in := &Interner{m: make(map[string]string, maxInternedStrings)}
	for i := 0; i < maxInternedStrings; i++ {
		k := strconv.Itoa(i)
		in.m[k] = k
	}
	if got := internOne(in, []byte("overflow")); got != "overflow" {
		t.Fatalf("intern past cap returned %q", got)
	}
	if _, ok := in.m["overflow"]; ok {
		t.Fatal("intern table grew past its cap")
	}
	// Existing entries still hit.
	if got := internOne(in, []byte("777")); got != "777" {
		t.Fatalf("existing entry miss: %q", got)
	}
}

// TestInternDictMixesHitsAndMisses interns one dictionary holding known
// values, new ones, a repeat of a new one and the empty string: every entry
// comes back equal to its bytes, and each value has one canonical copy.
func TestInternDictMixesHitsAndMisses(t *testing.T) {
	var in Interner
	known := internOne(&in, []byte("London"))
	b := []byte("LondonOsloLimaOslo")
	spans := []dictSpan{{0, 6}, {6, 10}, {10, 14}, {6, 6}, {14, 18}}
	dst := make([]string, len(spans))
	in.intern(dst, b, spans)
	for i, sp := range spans {
		if dst[i] != string(b[sp.lo:sp.hi]) {
			t.Fatalf("entry %d: %q, want %q", i, dst[i], b[sp.lo:sp.hi])
		}
	}
	if unsafe.StringData(dst[0]) != unsafe.StringData(known) {
		t.Fatal("a known value was not interned to its canonical copy")
	}
	if unsafe.StringData(dst[1]) != unsafe.StringData(dst[4]) {
		t.Fatal("a value repeated in one dictionary has two copies")
	}
	if again := internOne(&in, []byte("Lima")); unsafe.StringData(again) != unsafe.StringData(dst[2]) {
		t.Fatal("a value first seen as a miss was not kept")
	}
}

// TestViewPoolInternsAcrossFrames parses the same dictionary strings out of
// two frames with different neighbours: each comes back as the very string
// the first frame interned, not an equal copy.
func TestViewPoolInternsAcrossFrames(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var pool ViewPool
	a, b := randBatchRecord(r), randBatchRecord(r)
	a.City, b.City = "Zürich", "Zürich"
	a.ISP, b.ISP = "starlink", "starlink"
	first, err := pool.Parse(MarshalBatch([]extension.Record{a, randBatchRecord(r)}))
	if err != nil {
		t.Fatal(err)
	}
	second, err := pool.Parse(MarshalBatch([]extension.Record{randBatchRecord(r), b}))
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(first.City(0)) != unsafe.StringData(second.City(1)) ||
		unsafe.StringData(first.ISP(0)) != unsafe.StringData(second.ISP(1)) {
		t.Fatal("the same dictionary string from two frames is two copies")
	}
	pool.Put(first)
	pool.Put(second)
}

// TestViewPoolConcurrentParse has eight goroutines parse overlapping frames
// through one pool, as concurrent ingest requests do; under -race it is the
// interner's locking contract. Every view must decode its own frame.
func TestViewPoolConcurrentParse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	frames := make([][]byte, 16)
	want := make([][]extension.Record, len(frames))
	for i := range frames {
		recs := make([]extension.Record, 1+r.Intn(300))
		for j := range recs {
			recs[j] = randBatchRecord(r)
		}
		frames[i] = MarshalBatch(recs)
		want[i] = csvWireRoundTrip(t, recs)
	}
	var pool ViewPool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				i := (g + 3*k) % len(frames)
				v, err := pool.Parse(frames[i])
				if err != nil {
					errs <- err
					return
				}
				for j, got := range viewRecords(v) {
					if !recordsEqual(got, want[i][j]) {
						errs <- fmt.Errorf("goroutine %d: frame %d record %d differs", g, i, j)
						pool.Put(v)
						return
					}
				}
				pool.Put(v)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEncodeRowsSplitProperties pins what every frame split relies on — the
// forwarder splitting by ring owner, the WAL splitting an oversize frame —
// with one encoder reused throughout, so scratch left over from a previous
// frame of another size would show:
//
//   - re-encoding all rows reproduces the frame byte for byte, and equals
//     Encode over the materialised records (the two front doors share one
//     body);
//   - for any assignment of rows to k owners, each owner's sub-frame parses
//     to exactly its rows in their original relative order, so the owners
//     together hold every row once.
func TestEncodeRowsSplitProperties(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	var enc BatchEncoder
	for trial, n := range []int{0, 1, 2, 7, 64, 513, 2000, 3} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		v, err := ParseBatchView(MarshalBatch(recs))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := viewRecords(v)
		// AppendRecords agrees with the accessors, also after existing
		// elements.
		app := v.AppendRecords([]extension.Record{{UserID: "sentinel"}})
		if len(app) != n+1 || app[0].UserID != "sentinel" {
			t.Fatalf("trial %d: AppendRecords base mangled", trial)
		}
		for i := range want {
			if !recordsEqual(app[i+1], want[i]) {
				t.Fatalf("trial %d: AppendRecords record %d differs", trial, i)
			}
		}

		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		whole := enc.EncodeRows(v, all)
		if !bytes.Equal(whole, v.Frame()) {
			t.Fatalf("trial %d (n=%d): EncodeRows over all rows differs from the frame", trial, n)
		}
		if !bytes.Equal(whole, MarshalBatch(want)) {
			t.Fatalf("trial %d (n=%d): EncodeRows differs from Encode over the same records", trial, n)
		}
		if !bytes.Equal(enc.Encode(want), v.Frame()) {
			t.Fatalf("trial %d (n=%d): reused encoder differs from a fresh one", trial, n)
		}

		for _, k := range []int{1, 2, 3, 5} {
			owned := make([][]int32, k)
			for i := 0; i < n; i++ {
				o := r.Intn(k)
				owned[o] = append(owned[o], int32(i))
			}
			for o, rows := range owned {
				// The encoder owns its output and a view aliases its frame.
				sub, err := ParseBatchView(append([]byte(nil), enc.EncodeRows(v, rows)...))
				if err != nil {
					t.Fatalf("trial %d k=%d owner %d: %v", trial, k, o, err)
				}
				if sub.Len() != len(rows) {
					t.Fatalf("trial %d k=%d owner %d: %d rows, want %d", trial, k, o, sub.Len(), len(rows))
				}
				for j, got := range viewRecords(sub) {
					if !recordsEqual(got, want[rows[j]]) {
						t.Fatalf("trial %d k=%d owner %d: row %d is not original row %d", trial, k, o, j, rows[j])
					}
				}
			}
		}
	}
}
