package dataset

import (
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"testing"

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
		// equal: unsafe.StringData would prove it, but equality plus the
		// intern map's contract (same key → same stored value) suffices
		// without importing unsafe into the test.
		if city != firstCity {
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

// TestInternerCapsGrowth pins the intern-table bound: past the cap, Intern
// still returns correct strings, it just stops deduplicating.
func TestInternerCapsGrowth(t *testing.T) {
	in := &Interner{m: make(map[string]string, maxInternedStrings)}
	for i := 0; i < maxInternedStrings; i++ {
		k := strconv.Itoa(i)
		in.m[k] = k
	}
	if got := in.Intern([]byte("overflow")); got != "overflow" {
		t.Fatalf("Intern past cap returned %q", got)
	}
	if _, ok := in.m["overflow"]; ok {
		t.Fatal("intern table grew past its cap")
	}
	// Existing entries still hit.
	if got := in.Intern([]byte("777")); got != "777" {
		t.Fatalf("existing entry miss: %q", got)
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
