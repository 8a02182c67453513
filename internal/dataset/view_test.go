package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"starlinkview/internal/extension"
	"starlinkview/internal/varint"
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
func internOne(in *Interner, b []byte) (string, uint32) {
	dst, ids := make([]string, 1), make([]uint32, 1)
	in.intern(dst, ids, b, []dictSpan{{0, uint32(len(b))}})
	return dst[0], ids[0]
}

// TestInternerCapsGrowth pins the intern table's ids and bound: ids are
// dense and stable, a hit returns the first id, and past the cap intern
// still returns correct strings but no id, and the table stops growing.
func TestInternerCapsGrowth(t *testing.T) {
	var in Interner
	for i := 0; i < MaxInternedStrings; i++ {
		k := strconv.Itoa(i)
		var s string
		var id uint32
		if i%2 == 0 {
			s, id = in.Intern(k)
		} else {
			s, id = internOne(&in, []byte(k))
		}
		if s != k || id != uint32(i) {
			t.Fatalf("string %d: got %q id %d, want dense ids", i, s, id)
		}
	}
	for _, i := range []int{0, 1, 777, MaxInternedStrings - 1} {
		k := strconv.Itoa(i)
		if s, id := in.Intern(k); s != k || id != uint32(i) {
			t.Fatalf("Intern hit on %q: %q id %d, want id %d", k, s, id, i)
		}
		if s, id := internOne(&in, []byte(k)); s != k || id != uint32(i) {
			t.Fatalf("intern hit on %q: %q id %d, want id %d", k, s, id, i)
		}
	}
	if got, id := internOne(&in, []byte("overflow")); got != "overflow" || id != NoID {
		t.Fatalf("intern past cap returned %q id %d, want NoID", got, id)
	}
	if got, id := in.Intern("overflow2"); got != "overflow2" || id != NoID {
		t.Fatalf("Intern past cap returned %q id %d, want NoID", got, id)
	}
	if _, ok := in.m["overflow"]; ok || len(in.m) != MaxInternedStrings || len(in.strs) != MaxInternedStrings {
		t.Fatal("intern table grew past its cap")
	}
	// A refused string stays refused; existing entries still hit.
	if _, id := internOne(&in, []byte("overflow")); id != NoID {
		t.Fatalf("refused string came back with id %d", id)
	}
	if got, id := internOne(&in, []byte("777")); got != "777" || id != 777 {
		t.Fatalf("existing entry miss: %q id %d", got, id)
	}
}

// TestInternDictMixesHitsAndMisses interns one dictionary holding known
// values, new ones, a repeat of a new one and the empty string: every entry
// comes back equal to its bytes, and each value has one canonical copy.
func TestInternDictMixesHitsAndMisses(t *testing.T) {
	var in Interner
	known, _ := internOne(&in, []byte("London"))
	b := []byte("LondonOsloLimaOslo")
	spans := []dictSpan{{0, 6}, {6, 10}, {10, 14}, {6, 6}, {14, 18}}
	dst, ids := make([]string, len(spans)), make([]uint32, len(spans))
	in.intern(dst, ids, b, spans)
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
	if again, id := internOne(&in, []byte("Lima")); unsafe.StringData(again) != unsafe.StringData(dst[2]) || id != ids[2] {
		t.Fatal("a value first seen as a miss was not kept")
	}
	// London, Oslo, Lima, "" in first-seen order; the repeat shares an id.
	if want := []uint32{0, 1, 2, 3, 1}; !slices.Equal(ids, want) {
		t.Fatalf("ids %v, want %v", ids, want)
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

// TestAdoptRekeysForeignViews adopts views parsed by ParseBatchView and by
// another pool into a pool: afterwards their keyed ids and strings are the
// pool's, exactly as if the pool had parsed the frame itself.
func TestAdoptRekeysForeignViews(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	recs := make([]extension.Record, 30)
	for i := range recs {
		recs[i] = randBatchRecord(r)
	}
	frame := MarshalBatch(recs)
	var pool, other ViewPool
	other.Interner().Intern("numbers other's strings from 1")
	own, err := pool.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ParseBatchView(frame)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DomainID(0) != NoID || foreign.DomainID(0) == own.DomainID(0) {
		t.Fatal("the views do not start out keyed by different interners")
	}
	for _, v := range []*BatchView{plain, foreign, own} {
		pool.Adopt(v)
		for i := range recs {
			if v.DomainID(i) != own.DomainID(i) || unsafe.StringData(v.Domain(i)) != unsafe.StringData(own.Domain(i)) ||
				unsafe.StringData(v.City(i)) != unsafe.StringData(own.City(i)) {
				t.Fatalf("row %d: adopted view keyed %q as %d, the pool as %d", i, v.Domain(i), v.DomainID(i), own.DomainID(i))
			}
		}
	}
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

// withColumn returns frame with column id's payload replaced, its body
// length and CRC recomputed.
func withColumn(frame []byte, id byte, payload []byte) []byte {
	body := frame[8 : len(frame)-4]
	c := &varint.Cursor{Buf: body}
	c.U8()
	c.Uvarint()
	c.U8()
	out := append([]byte(nil), body[:c.Off]...)
	for c.Off < len(body) {
		cid, _ := c.U8()
		enc, _ := c.U8()
		plen, _ := c.Uvarint()
		p, _ := c.Bytes(int(plen))
		if cid == id {
			p = payload
		}
		out = appendColHeader(out, cid, enc, len(p))
		out = append(out, p...)
	}
	f := binary.LittleEndian.AppendUint32([]byte(BatchMagic), uint32(len(out)))
	f = append(f, out...)
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(out, batchCRC))
}

// dictPayload encodes a dictionary column: the entries as given, then one
// entry index per row.
func dictPayload(entries []string, idx []int) []byte {
	p := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, s := range entries {
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	for _, k := range idx {
		p = binary.AppendUvarint(p, uint64(k))
	}
	return p
}

// repeatedEntriesFrame is a valid frame no encoder here writes, and the
// records it carries. Its user-ID dictionary lists two values twice, and
// its domain dictionary lists a value and the empty string twice plus an
// entry no row names; rows name both copies of each repeat.
func repeatedEntriesFrame() ([]byte, []extension.Record) {
	users, userIdx := []string{"ann", "bo", "ann", "cy", "bo"}, []int{0, 1, 2, 3, 4, 2, 0}
	domains, domainIdx := []string{"a.example", "", "a.example", "", "b.example", "unused.example"},
		[]int{0, 1, 2, 3, 4, 2, 1}
	recs := make([]extension.Record, len(userIdx))
	for i := range recs {
		recs[i] = extension.Record{
			UserID: users[userIdx[i]], City: "Oslo", Country: "NO", ISP: "starlink", ASN: 14593,
			At: time.Unix(1650000000+int64(i), 0).UTC(), Domain: domains[domainIdx[i]],
			Rank: i + 1, Popular: i%2 == 0, PTTMs: 10.5 * float64(i), PLTMs: 250,
			HasWx: i%3 == 0, Google: i == 4,
		}
	}
	frame := withColumn(MarshalBatch(recs), colUserID, dictPayload(users, userIdx))
	return withColumn(frame, colDomain, dictPayload(domains, domainIdx)), recs
}

// repeatedEntriesSeed is where FuzzUnmarshalBatch's seed corpus keeps
// repeatedEntriesFrame: the fuzzer cannot forge a CRC, so it only reaches a
// repeated entry from a seed.
var repeatedEntriesSeed = filepath.Join("testdata", "fuzz", "FuzzUnmarshalBatch", "repeated-entries")

// TestParseQuantisesRawFloats parses a frame whose raw float column holds
// values off the milli grid, as a foreign encoder may write it. Each reads
// back as quantizeMilli's value, and a re-encode of any rows changes none.
func TestParseQuantisesRawFloats(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	recs := make([]extension.Record, 40)
	for i := range recs {
		recs[i] = randBatchRecord(r)
	}
	recs[0].PLTMs = math.Inf(1) // the encoder writes the PLT column raw
	raw := make([]float64, len(recs))
	var payload []byte
	for i := range raw {
		raw[i] = 1000 * r.Float64()
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(raw[i]))
	}
	v, err := ParseBatchView(withColumn(MarshalBatch(recs), colPLT, payload))
	if err != nil {
		t.Fatal(err)
	}
	rows := []int32{3, 1, 4, 15, 9, 26}
	sub, err := UnmarshalBatch(new(BatchEncoder).EncodeRows(v, rows))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range raw {
		if _, q, _ := quantizeMilli(x); v.PLTMs(i) != q || q == x {
			t.Fatalf("row %d: raw %v parsed as %v, want %v", i, x, v.PLTMs(i), q)
		}
	}
	for j, i := range rows {
		if sub[j].PLTMs != v.PLTMs(int(i)) {
			t.Fatalf("row %d: re-encoded %v, parsed %v", i, sub[j].PLTMs, v.PLTMs(int(i)))
		}
	}
}

// TestParseCanonicalisesRepeatedEntries parses a frame whose dictionaries
// repeat entries. It must decode to the records it carries, as it did when
// the parser kept the repeats, and re-encoding any of its rows must give
// exactly what Encode gives for the same records, though EncodeRows copies
// entries by index.
func TestParseCanonicalisesRepeatedEntries(t *testing.T) {
	frame, want := repeatedEntriesFrame()
	if bytes.Equal(frame, MarshalBatch(want)) {
		t.Fatal("the crafted frame is canonical")
	}
	var pool ViewPool
	pooled, err := pool.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(pooled)
	plain, err := ParseBatchView(frame)
	if err != nil {
		t.Fatal(err)
	}
	var enc BatchEncoder
	for name, v := range map[string]*BatchView{"pooled": pooled, "unpooled": plain} {
		got, each := v.AppendRecords(nil), viewRecords(v)
		for i := range want {
			if !recordsEqual(got[i], want[i]) || !recordsEqual(each[i], want[i]) {
				t.Fatalf("%s: record %d decodes to %+v, want %+v", name, i, got[i], want[i])
			}
		}
		for _, rows := range [][]int32{{0, 1, 2, 3, 4, 5, 6}, {2, 5, 6}, {1, 3, 4}, {5, 2, 0}} {
			sub := make([]extension.Record, len(rows))
			for j, r := range rows {
				sub[j] = want[r]
			}
			if !bytes.Equal(enc.EncodeRows(v, rows), MarshalBatch(sub)) {
				t.Fatalf("%s: EncodeRows(%v) differs from Encode over the same records", name, rows)
			}
		}
	}
	seed, err := os.ReadFile(repeatedEntriesSeed)
	if err != nil {
		t.Fatal(err)
	}
	if string(seed) != fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame) {
		t.Fatalf("%s does not hold repeatedEntriesFrame", repeatedEntriesSeed)
	}
}

// TestLazyColumnsOutliveView reads user IDs, countries and records through
// a pooled view, releases it, lets the pool read another frame of the same
// size, then overwrites the first frame's buffer: the strings read before
// must not change, because UserID, Country and RecordAt copy what they do
// not intern.
func TestLazyColumnsOutliveView(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	first, second := make([]extension.Record, 40), make([]extension.Record, 40)
	for i := range first {
		first[i] = randBatchRecord(r)
		first[i].UserID, first[i].Country = fmt.Sprintf("first-%02d", i), fmt.Sprintf("F%d", i%3)
		second[i] = first[i]
		second[i].UserID, second[i].Country = fmt.Sprintf("later-%02d", i), fmt.Sprintf("L%d", i%3)
	}
	want := csvWireRoundTrip(t, first)
	var pool ViewPool
	v, err := pool.Read(bytes.NewReader(MarshalBatch(first)))
	if err != nil {
		t.Fatal(err)
	}
	buf := v.Frame()
	users, countries := make([]string, v.Len()), make([]string, v.Len())
	for i := range users {
		users[i], countries[i] = v.UserID(i), v.Country(i)
	}
	one, all := viewRecords(v), v.AppendRecords(nil)
	pool.Put(v)
	check := func(when string) {
		t.Helper()
		for i := range want {
			if users[i] != want[i].UserID || countries[i] != want[i].Country ||
				!recordsEqual(one[i], want[i]) || !recordsEqual(all[i], want[i]) {
				t.Fatalf("%s: row %d changed", when, i)
			}
		}
	}
	next, err := pool.Read(bytes.NewReader(MarshalBatch(second)))
	if err != nil {
		t.Fatal(err)
	}
	if next.UserID(0) != "later-00" {
		t.Fatalf("second frame reads user %q", next.UserID(0))
	}
	check("after the pool read another frame")
	pool.Put(next)
	for i := range buf {
		buf[i] = 0xff
	}
	check("after the first frame's buffer was overwritten")
}

// TestInternerKeepsOnlyKeyedColumns streams more distinct user IDs through
// one pool than the intern table may hold, then a frame with a new domain.
// User IDs are not interned, so the table still has room: the domain is
// interned on its first frame, and parsing the frame again allocates
// nothing.
func TestInternerKeepsOnlyKeyedColumns(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	base := randBatchRecord(r)
	var pool ViewPool
	recs := make([]extension.Record, 1024)
	for f := 0; f*len(recs) <= MaxInternedStrings; f++ {
		for i := range recs {
			recs[i] = base
			recs[i].UserID = fmt.Sprintf("user-%d", f*len(recs)+i)
		}
		v, err := pool.Parse(MarshalBatch(recs))
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(v)
	}
	fresh := base
	fresh.UserID, fresh.Domain = "user-0", "fresh.example"
	frame := MarshalBatch([]extension.Record{fresh})
	v, err := pool.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	interned := v.Domain(0)
	pool.Put(v)

	var again BatchView
	allocs := testing.AllocsPerRun(10, func() {
		if err := again.parse(frame, &pool.intern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parsing a frame of known keys allocates %.1f times", allocs)
	}
	if unsafe.StringData(again.Domain(0)) != unsafe.StringData(interned) {
		t.Fatal("the new domain was not interned")
	}
}

// TestPooledViewReuseReadsNewFrame parses frame A into a pooled view, reads
// its integer and PLT columns, releases the view and has the pool parse
// frame B, of the same size, into the same view. Every reader must then see
// B: nothing A's reads left in the view may leak into B's.
func TestPooledViewReuseReadsNewFrame(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	a, b := make([]extension.Record, 50), make([]extension.Record, 50)
	for i := range a {
		a[i], b[i] = randBatchRecord(r), randBatchRecord(r)
	}
	frameA, frameB := MarshalBatch(a), MarshalBatch(b)
	ref, err := refParse(frameBody(frameB))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, len(b))
	for i := range all {
		all[i] = int32(i)
	}
	var pool ViewPool
	// A release may drop the view (sync.Pool does so at random under
	// -race); try until the pool hands the same view back.
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("the pool never handed a released view back")
		}
		va, err := pool.Parse(frameA)
		if err != nil {
			t.Fatal(err)
		}
		if va.ASN(0) != a[0].ASN || va.Unix(0) != a[0].At.Unix() || va.Rank(0) != a[0].Rank {
			t.Fatal("frame A reads wrong")
		}
		_ = va.PLTMs(0)
		pool.Put(va)
		vb, err := pool.Parse(frameB)
		if err != nil {
			t.Fatal(err)
		}
		if vb != va {
			pool.Put(vb)
			continue
		}
		for i := range b {
			want := ref.record(i)
			if vb.ASN(i) != want.ASN || !vb.At(i).Equal(want.At) || vb.Unix(i) != ref.ts[i] ||
				vb.Rank(i) != want.Rank || math.Float64bits(vb.PLTMs(i)) != math.Float64bits(want.PLTMs) {
				t.Fatalf("row %d of frame B reads ASN %d, %v, rank %d, PLT %v; want %d, %v, %d, %v", i,
					vb.ASN(i), vb.At(i), vb.Rank(i), vb.PLTMs(i), want.ASN, want.At, want.Rank, want.PLTMs)
			}
		}
		for i, got := range vb.AppendRecords(nil) {
			if !recordsEqual(got, ref.record(i)) {
				t.Fatalf("AppendRecords row %d is not frame B's", i)
			}
		}
		if !bytes.Equal(new(BatchEncoder).EncodeRows(vb, all), new(BatchEncoder).Encode(b)) {
			t.Fatal("EncodeRows of the reused view differs from Encode over frame B's records")
		}
		pool.Put(vb)
		return
	}
}

// TestLazyColumnsConcurrentFirstRead has eight goroutines make the first
// read of a freshly parsed pooled view at once, each through a different
// reader of its integer and PLT columns. Under -race it is the rule that a
// view's first read is safe beside any other read; every reader must see
// the frame's values.
func TestLazyColumnsConcurrentFirstRead(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	recs := make([]extension.Record, 300)
	for i := range recs {
		recs[i] = randBatchRecord(r)
	}
	frame := MarshalBatch(recs)
	want := csvWireRoundTrip(t, recs)
	all := make([]int32, len(recs))
	for i := range all {
		all[i] = int32(i)
	}
	readers := []func(v *BatchView) error{
		func(v *BatchView) error {
			for i := range want {
				if v.ASN(i) != want[i].ASN {
					return fmt.Errorf("ASN row %d", i)
				}
			}
			return nil
		},
		func(v *BatchView) error {
			for i := range want {
				if !v.At(i).Equal(want[i].At) || v.Unix(i) != want[i].At.Unix() {
					return fmt.Errorf("At row %d", i)
				}
			}
			return nil
		},
		func(v *BatchView) error {
			for i := range want {
				if v.Rank(i) != want[i].Rank {
					return fmt.Errorf("Rank row %d", i)
				}
			}
			return nil
		},
		func(v *BatchView) error {
			for i := range want {
				if math.Float64bits(v.PLTMs(i)) != math.Float64bits(want[i].PLTMs) {
					return fmt.Errorf("PLTMs row %d", i)
				}
			}
			return nil
		},
		func(v *BatchView) error {
			for i, got := range viewRecords(v) {
				if !recordsEqual(got, want[i]) {
					return fmt.Errorf("RecordAt row %d", i)
				}
			}
			return nil
		},
		func(v *BatchView) error {
			for i, got := range v.AppendRecords(nil) {
				if !recordsEqual(got, want[i]) {
					return fmt.Errorf("AppendRecords row %d", i)
				}
			}
			return nil
		},
		func(v *BatchView) error {
			if !bytes.Equal(new(BatchEncoder).EncodeRows(v, all), frame) {
				return fmt.Errorf("EncodeRows differs from the frame")
			}
			return nil
		},
		func(v *BatchView) error {
			for i := range want {
				if v.ASN(len(want)-1-i) != want[len(want)-1-i].ASN {
					return fmt.Errorf("ASN row %d, read backwards", i)
				}
			}
			return nil
		},
	}
	var pool ViewPool
	for round := 0; round < 20; round++ {
		v, err := pool.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, len(readers))
		var wg sync.WaitGroup
		for _, read := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := read(v); err != nil {
					errs <- err
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		pool.Put(v)
	}
}
