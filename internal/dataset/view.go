package dataset

// Zero-copy batch views: the one decoder, and the only decoded form of a
// frame.
//
// A BatchView validates a frame once (frame CRC, column structure, every
// per-encoding bound) and keeps the columns as columns: integers land in
// reusable []int64, the bitset/weather payloads are aliased straight out of
// the frame, and each dictionary column keeps its entries' spans in the
// frame plus one entry index per row. Row i is assembled on demand by the
// accessors, so ingest, WAL replay and the forwarding split can hash, shard,
// aggregate and re-encode without ever building a record slice;
// AppendRecords materialises one for the offline consumers that want it.
// What a decoded row must equal is pinned against an independent codec —
// the CSV row encoding — by TestBatchRoundTripMatchesCSVWire.
//
// Only the dictionaries the collector keys on — city, ISP and domain — are
// turned into strings at parse time. User ID and country stay spans: UserID
// and Country copy their entry on each call, AppendRecords copies each entry
// once per view, and EncodeRows copies entry bytes by index. The parse
// points every row that names a repeated keyed entry at the entry's first
// occurrence, so in a keyed column equal bytes always have one index; user
// ID and country keep the indices the frame gives them, and EncodeRows
// merges their repeats by bytes, so an index-based re-encode is
// byte-identical to Encode over the same records.
//
// The integer columns a shard reads — every dictionary's index stream and
// PTT — are decoded at parse, each by one call of varint.Uvarints into the
// view's scratch, then bound-checked or prefix-summed in a loop of its own,
// so no column pays a function call per value. The ASN, timestamp and rank
// columns and PLT, which no shard reads, are only checked at parse:
// varint.Check accepts exactly the payloads Uvarints would, without
// decoding, and a raw float column is checked for its length. They are
// decoded at the first read of any of them, so ingest, replay and a
// forward peer never decode them; see BatchView.decode.
//
// A ViewPool recycles views (and their frame buffers and column slices)
// and interns the keyed strings across frames, which is what drives the
// per-record steady state to ~zero allocations: the only strings a
// long-running collector allocates are the first occurrence of each
// distinct city/ISP/domain value. The interner also numbers each string it
// keeps, and a keyed column carries its entries' ids, so a consumer can key
// state by a dense integer instead of hashing the string per row.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/varint"
	"starlinkview/internal/weather"
)

// MaxInternedStrings bounds the intern table so a hostile or pathological
// stream of unique values cannot grow it without limit; beyond the cap new
// strings are returned un-interned (correct, just not deduplicated) and
// carry NoID.
const MaxInternedStrings = 1 << 17

// NoID is the id of a string the interner did not keep: one it refused past
// MaxInternedStrings, or any keyed entry of a view parsed without a pool.
const NoID = ^uint32(0)

// Interner deduplicates the strings decoded out of the keyed batch
// dictionaries (city, ISP, domain): a few thousand values however long the
// collector runs. User IDs grow without bound and no aggregate reads one, so
// they are never interned and cannot fill the table. A dictionary is
// interned as a whole: every entry is looked up under one read lock, and
// only the misses take the write lock, so repeated values cost two atomic
// operations per dictionary and zero allocations (Go compiles the map lookup
// without copying the byte-slice key).
//
// Every string the table keeps has a dense id, its index in strs, fixed for
// the interner's life. A string is either numbered at its first intern or
// refused then and ever after (the table only grows, and is full for good
// once it refuses), so within one interner equal strings always carry equal
// ids and a refused string never has one.
type Interner struct {
	mu   sync.RWMutex
	m    map[string]uint32
	strs []string
}

// dictSpan locates one dictionary entry's bytes in its column payload.
type dictSpan struct{ lo, hi uint32 }

// intern sets dst[i] and ids[i] to the canonical string and id for
// b[spans[i].lo:spans[i].hi], allocating only for values it has not seen.
func (in *Interner) intern(dst []string, ids []uint32, b []byte, spans []dictSpan) {
	miss := false
	in.mu.RLock()
	for i, sp := range spans {
		if id, ok := in.m[string(b[sp.lo:sp.hi])]; ok {
			dst[i], ids[i] = in.strs[id], id
		} else {
			ids[i], miss = NoID, true
		}
	}
	in.mu.RUnlock()
	if !miss {
		return
	}
	in.mu.Lock()
	for i, sp := range spans {
		if ids[i] != NoID {
			continue
		}
		key := b[sp.lo:sp.hi]
		if id, ok := in.m[string(key)]; ok {
			dst[i], ids[i] = in.strs[id], id
		} else {
			dst[i] = string(key)
			ids[i] = in.add(dst[i])
		}
	}
	in.mu.Unlock()
}

// Intern returns the canonical copy of s and its id, keeping s itself when
// it is new and the table has room; a hit allocates nothing. It is for
// callers that hold strings rather than a frame, such as checkpoint restore.
func (in *Interner) Intern(s string) (string, uint32) {
	in.mu.RLock()
	id, ok := in.m[s]
	if ok {
		s = in.strs[id]
	}
	in.mu.RUnlock()
	if ok {
		return s, id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.m[s]; ok {
		return in.strs[id], id
	}
	return s, in.add(s)
}

// add numbers s, a string the table lacks, and returns its id, or NoID
// when the table is full. The caller holds the write lock.
func (in *Interner) add(s string) uint32 {
	if len(in.strs) >= MaxInternedStrings {
		return NoID
	}
	if in.m == nil {
		in.m = make(map[string]uint32, 1024)
	}
	id := uint32(len(in.strs))
	in.m[s] = id
	in.strs = append(in.strs, s)
	return id
}

// dictCol is a decoded dictionary column: every entry's span in the
// column's payload (which aliases the frame) and one entry index per record.
// A keyed column also holds each entry as a string and its id in the view's
// interner; the others copy an entry out of the frame when asked.
type dictCol struct {
	payload []byte
	spans   []dictSpan
	idx     []uint32
	entries []string // keyed columns only
	ids     []uint32 // keyed columns only
}

// at is row i's entry of a keyed column.
func (d *dictCol) at(i int) string { return d.entries[d.idx[i]] }

// entry is entry k's bytes, aliasing the frame.
func (d *dictCol) entry(k uint32) []byte {
	sp := d.spans[k]
	return d.payload[sp.lo:sp.hi]
}

// copyAt copies row i's entry out of the frame.
func (d *dictCol) copyAt(i int) string { return string(d.entry(d.idx[i])) }

// copies returns every entry as a string, with one copy of the dictionary's
// bytes shared by all of them.
func (d *dictCol) copies() []string {
	if len(d.spans) == 0 {
		return nil
	}
	lo := d.spans[0].lo
	blk := string(d.payload[lo:d.spans[len(d.spans)-1].hi])
	out := make([]string, len(d.spans))
	for k, sp := range d.spans {
		out[k] = blk[sp.lo-lo : sp.hi-lo]
	}
	return out
}

// BatchView is a validated SLB1 frame exposed column-wise. All accessors
// are bounds-unchecked beyond the slice's own check: a view only exists
// after parse verified every column covers exactly Len() records.
//
// The dictionary, bitset and weather columns alias the frame buffer, so the
// view (and any slice read through it) is valid only until the view is
// released back to its pool. Strings read through it stay valid.
type BatchView struct {
	n     int
	frame []byte
	in    *Interner // whose ids the keyed columns carry; nil for none

	userID  dictCol
	city    dictCol
	country dictCol
	isp     dictCol
	domain  dictCol

	asn  []int64 // lazy
	ts   []int64 // lazy
	rank []int64 // lazy

	ptt []float64
	plt []float64 // lazy

	popular   []byte // bitset payloads, LSB-first, aliasing frame
	hasWx     []byte
	benchmark []byte
	google    []byte
	weather   []byte // one condition byte per record, aliasing frame

	vals  []uint64  // one column's decoded varints
	slots slotTable // canonicalise scratch
	first []uint32  // canonicalise scratch: entry → its first occurrence

	// The lazy columns' checked payloads, aliasing frame, and PLT's
	// encoding; decode turns them into asn, ts, rank and plt once per
	// parse, under decodeMu, and then sets decoded.
	asnP, tsP, rankP, pltP []byte
	pltEnc                 byte
	decodeMu               sync.Mutex
	decoded                atomic.Bool
}

// ParseBatchView validates frame and decodes it into a fresh view with no
// interning, so every keyed id is NoID (ViewPool.Adopt numbers them). The
// view aliases frame, which must stay untouched for the view's lifetime.
// Pooled callers use ViewPool.Read instead.
func ParseBatchView(frame []byte) (*BatchView, error) {
	v := &BatchView{}
	if err := v.parse(frame, nil); err != nil {
		return nil, err
	}
	return v, nil
}

// parse validates the frame and decodes its columns, reusing v's column
// slices where capacity allows.
func (v *BatchView) parse(frame []byte, in *Interner) error {
	body, err := checkBatchFrame(frame)
	if err != nil {
		return err
	}
	v.frame = frame
	v.in = in
	v.decoded.Store(false)
	c := &varint.Cursor{Buf: body}
	ver, err := c.U8()
	if err != nil {
		return fmt.Errorf("dataset: batch version: %w", err)
	}
	if ver != BatchVersion {
		return fmt.Errorf("dataset: unsupported batch version %d", ver)
	}
	nRec64, err := c.Uvarint()
	if err != nil {
		return fmt.Errorf("dataset: record count: %w", err)
	}
	// A valid frame spends at least one byte per record in every dictionary
	// column's index stream, so the record count can never exceed the body
	// length. This bound keeps the column allocations proportional to the
	// input even for hostile headers.
	if nRec64 > uint64(len(body)) {
		return fmt.Errorf("dataset: record count %d exceeds body size %d", nRec64, len(body))
	}
	v.n = int(nRec64)
	nCols, err := c.U8()
	if err != nil {
		return fmt.Errorf("dataset: batch column count: %w", err)
	}
	if nCols != numBatchCols {
		return fmt.Errorf("dataset: batch has %d columns, want %d", nCols, numBatchCols)
	}
	seen := [numBatchCols]bool{}
	for ci := 0; ci < int(nCols); ci++ {
		id, err := c.U8()
		if err != nil {
			return fmt.Errorf("dataset: column header: %w", err)
		}
		enc, err := c.U8()
		if err != nil {
			return fmt.Errorf("dataset: column header: %w", err)
		}
		plen64, err := c.Uvarint()
		if err != nil {
			return fmt.Errorf("dataset: column header: %w", err)
		}
		if plen64 > uint64(len(body)) {
			return fmt.Errorf("dataset: column %d payload %d exceeds body", id, plen64)
		}
		payload, err := c.Bytes(int(plen64))
		if err != nil {
			return fmt.Errorf("dataset: column %d payload: %w", id, err)
		}
		if int(id) >= numBatchCols {
			return fmt.Errorf("dataset: unknown column id %d", id)
		}
		if seen[id] {
			return fmt.Errorf("dataset: duplicate column id %d", id)
		}
		seen[id] = true
		if err := v.parseColumn(id, enc, payload, in); err != nil {
			return fmt.Errorf("dataset: column %s: %w", extensionHeader[id], err)
		}
	}
	if c.Off != len(body) {
		return fmt.Errorf("dataset: %d trailing bytes after columns", len(body)-c.Off)
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("dataset: missing column %s", extensionHeader[i])
		}
	}
	return nil
}

func (v *BatchView) parseColumn(id, enc byte, payload []byte, in *Interner) error {
	switch id {
	case colUserID, colCity, colCountry, colISP, colDomain:
		if enc != encDict {
			return fmt.Errorf("encoding %d, want dict", enc)
		}
		return v.parseDict(v.dict(id), payload, in, keyedCol(id))
	case colASN, colTimestamp, colRank:
		if enc != encDelta {
			return fmt.Errorf("encoding %d, want delta", enc)
		}
		if !varint.Check(payload, v.n) {
			return errVarints
		}
		switch id {
		case colASN:
			v.asnP = payload
		case colTimestamp:
			v.tsP = payload
		default:
			v.rankP = payload
		}
		return nil
	case colPopular, colHasWeather, colBenchmark, colGoogle:
		if enc != encBits {
			return fmt.Errorf("encoding %d, want bits", enc)
		}
		if want := (v.n + 7) / 8; len(payload) != want {
			return fmt.Errorf("bitset payload %d bytes, want %d", len(payload), want)
		}
		switch id {
		case colPopular:
			v.popular = payload
		case colHasWeather:
			v.hasWx = payload
		case colBenchmark:
			v.benchmark = payload
		default:
			v.google = payload
		}
		return nil
	case colPTT:
		var err error
		v.ptt, err = v.parseFloat(v.ptt, enc, payload)
		return err
	case colPLT:
		if err := v.checkFloat(enc, payload); err != nil {
			return err
		}
		v.pltP, v.pltEnc = payload, enc
		return nil
	case colWeather:
		if enc != encU8 {
			return fmt.Errorf("encoding %d, want u8", enc)
		}
		if len(payload) != v.n {
			return fmt.Errorf("weather payload %d bytes, want %d", len(payload), v.n)
		}
		nCond := len(weather.Conditions())
		for i, b := range payload {
			if int(b) >= nCond {
				return fmt.Errorf("record %d: weather condition %d out of range", i, b)
			}
		}
		v.weather = payload
		return nil
	default:
		return fmt.Errorf("unknown column id %d", id)
	}
}

// dict is the dictionary column with wire id id.
func (v *BatchView) dict(id byte) *dictCol {
	switch id {
	case colUserID:
		return &v.userID
	case colCity:
		return &v.city
	case colCountry:
		return &v.country
	case colISP:
		return &v.isp
	default:
		return &v.domain
	}
}

// keyedCol reports whether dictionary column id is one the collector keys
// on: its entries are interned and canonicalised at parse.
func keyedCol(id byte) bool { return id == colCity || id == colISP || id == colDomain }

// parseDict validates a dictionary column into d. Only a keyed column's
// entries become strings, interned through in when it is non-nil, and only
// a keyed column is canonicalised.
func (v *BatchView) parseDict(d *dictCol, payload []byte, in *Interner, keyed bool) error {
	c := &varint.Cursor{Buf: payload}
	nEntries, err := c.Uvarint()
	if err != nil {
		return err
	}
	if nEntries > uint64(len(payload)) {
		return fmt.Errorf("dictionary size %d exceeds payload", nEntries)
	}
	d.payload = payload
	d.spans = grow(d.spans, int(nEntries))
	for i := range d.spans {
		elen, err := c.Uvarint()
		if err != nil {
			return err
		}
		if elen > uint64(len(payload)) {
			return fmt.Errorf("dictionary entry length %d exceeds payload", elen)
		}
		lo := c.Off
		if _, err := c.Bytes(int(elen)); err != nil {
			return err
		}
		d.spans[i] = dictSpan{uint32(lo), uint32(c.Off)}
	}
	idx, err := v.uvarints(payload[c.Off:])
	if err != nil {
		return err
	}
	d.idx = grow(d.idx, v.n)
	for i, ix := range idx {
		if ix >= nEntries {
			return fmt.Errorf("record %d: dictionary index %d out of range (%d entries)", i, ix, nEntries)
		}
		d.idx[i] = uint32(ix)
	}
	if !keyed {
		d.entries, d.ids = d.entries[:0], d.ids[:0]
		return nil
	}
	d.entries = grow(d.entries, int(nEntries))
	d.ids = grow(d.ids, int(nEntries))
	if in != nil {
		in.intern(d.entries, d.ids, payload, d.spans)
	} else {
		for i, sp := range d.spans {
			d.entries[i], d.ids[i] = string(payload[sp.lo:sp.hi]), NoID
		}
	}
	v.canonicalise(d)
	return nil
}

// uvarints decodes the v.n varints that fill p into the view's scratch.
func (v *BatchView) uvarints(p []byte) ([]uint64, error) {
	v.vals = grow(v.vals, v.n)
	return v.vals, varint.Uvarints(v.vals, p)
}

// dictSeed keys the byte hash of canonicalise and of the encoder's
// dictionaries; any seed gives the same result.
var dictSeed = maphash.MakeSeed()

// slotTable is open addressing over dictionary entries, at most half full.
// A slot holds an entry's hash tag (high 32 bits) and its index plus one
// (low 32; 0 is empty), so the table stays in cache and a probe compares
// keys only on a tag match. The caller probes from home(h), stepping by one
// under mask, and compares keys itself.
type slotTable struct {
	slots []uint64
	shift uint
	mask  uint64
}

// reset sizes t for n keys and empties it.
func (t *slotTable) reset(n int) {
	b := bits.Len(uint(max(2*n-1, 1)))
	t.slots = grow(t.slots, 1<<b)
	clear(t.slots)
	t.shift, t.mask = uint(64-b), 1<<b-1
}

// home is the first slot h probes, from its high bits; tag takes the low 32.
func (t *slotTable) home(h uint64) uint64 { return h >> t.shift }
func slotTag(h uint64) uint64             { return h << 32 }

// idHash spreads an interner id over 64 bits for the slot table.
func idHash(id uint32) uint64 { return uint64(id) * 0x9e3779b97f4a7c15 }

// canonicalise points every row that names a repeated entry of keyed
// column d at that entry's first occurrence, so within the column equal
// bytes have one index. The encoder never writes a repeat, but the parser
// has always accepted one, and EncodeRows copies entries by index. An
// entry is hashed once: by its interner id, which within one interner
// equal bytes share (numbered at first sight or refused for good), or by
// its bytes when it has NoID, which equal bytes then also have.
func (v *BatchView) canonicalise(d *dictCol) {
	n := len(d.spans)
	if n < 2 {
		return
	}
	t := &v.slots
	t.reset(n)
	first := v.first[:0]
	for k, id := range d.ids {
		h := idHash(id)
		if id == NoID {
			h = maphash.String(dictSeed, d.entries[k])
		}
		tag := slotTag(h)
		for j := t.home(h); ; j = (j + 1) & t.mask {
			s := t.slots[j]
			if s == 0 {
				t.slots[j] = tag | uint64(k+1)
				break
			}
			o := uint32(s) - 1
			if s&^(1<<32-1) != tag || d.ids[o] != id || id == NoID && d.entries[o] != d.entries[k] {
				continue
			}
			if len(first) == 0 {
				first = grow(first, n)
				for i := range first {
					first[i] = uint32(i)
				}
			}
			first[k] = o
			break
		}
	}
	v.first = first
	if len(first) == 0 {
		return
	}
	for i, k := range d.idx {
		d.idx[i] = first[k]
	}
}

func (v *BatchView) parseDelta(dst []int64, payload []byte) ([]int64, error) {
	u, err := v.uvarints(payload)
	if err != nil {
		return dst, err
	}
	dst = grow(dst, v.n)
	prev := int64(0)
	for i, x := range u {
		prev += varint.Unzigzag(x)
		dst[i] = prev
	}
	return dst, nil
}

// errVarints rejects a lazy column whose payload is not v.n varints.
var errVarints = errors.New("payload is not one varint per record")

// checkFloat makes the checks parseFloat makes on a float column, without
// decoding it.
func (v *BatchView) checkFloat(enc byte, payload []byte) error {
	switch enc {
	case encF64Milli:
		if !varint.Check(payload, v.n) {
			return errVarints
		}
		return nil
	case encF64Raw:
		if len(payload) != 8*v.n {
			return fmt.Errorf("raw float payload %d bytes, want %d", len(payload), 8*v.n)
		}
		return nil
	default:
		return fmt.Errorf("encoding %d, want f64milli or f64raw", enc)
	}
}

func (v *BatchView) parseFloat(dst []float64, enc byte, payload []byte) ([]float64, error) {
	if enc != encF64Milli {
		if err := v.checkFloat(enc, payload); err != nil {
			return dst, err
		}
		// Raw bits. The encoders here write raw bits of quantised values
		// only; a foreign encoder may not. Quantising at parse makes a row
		// apply the same value whether or not a split re-encodes it.
		dst = grow(dst, v.n)
		for i := range dst {
			_, dst[i], _ = quantizeMilli(math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:])))
		}
		return dst, nil
	}
	u, err := v.uvarints(payload)
	if err != nil {
		return dst, err
	}
	dst = grow(dst, v.n)
	prev := int64(0)
	for i, x := range u {
		prev += varint.Unzigzag(x)
		dst[i] = float64(prev) / 1000
	}
	return dst, nil
}

// decode makes the lazy columns readable. Every reader of them calls it
// first, and a bulk reader calls it once, not per row. The first call after
// a parse decodes all four under decodeMu, so concurrent first readers
// decode once and each sees the result; any later call is one atomic load.
func (v *BatchView) decode() {
	if !v.decoded.Load() {
		v.decodeSlow()
	}
}

func (v *BatchView) decodeSlow() {
	v.decodeMu.Lock()
	defer v.decodeMu.Unlock()
	if v.decoded.Load() {
		return
	}
	var err [4]error
	v.asn, err[0] = v.parseDelta(v.asn, v.asnP)
	v.ts, err[1] = v.parseDelta(v.ts, v.tsP)
	v.rank, err[2] = v.parseDelta(v.rank, v.rankP)
	v.plt, err[3] = v.parseFloat(v.plt, v.pltEnc, v.pltP)
	if err := errors.Join(err[:]...); err != nil {
		panic("dataset: a column the parse checked does not decode: " + err.Error())
	}
	v.decoded.Store(true)
}

// grow returns s resized to n elements, reusing its backing array when that
// is large enough; the contents are unspecified (every caller overwrites).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func bitAt(p []byte, i int) bool { return p[i/8]&(1<<(i%8)) != 0 }

// Len is the number of records in the frame.
func (v *BatchView) Len() int { return v.n }

// Frame is the verbatim wire frame backing the view (the bytes the
// collector appends to its WAL). Valid only while the view is.
func (v *BatchView) Frame() []byte { return v.frame }

// UserID and Country copy the entry out of the frame on every call; the
// keyed columns return their interned strings.
func (v *BatchView) UserID(i int) string  { return v.userID.copyAt(i) }
func (v *BatchView) City(i int) string    { return v.city.at(i) }
func (v *BatchView) Country(i int) string { return v.country.copyAt(i) }
func (v *BatchView) ISP(i int) string     { return v.isp.at(i) }
func (v *BatchView) Domain(i int) string  { return v.domain.at(i) }

// CityEntry and ISPEntry are row i's canonical entry indices in the city
// and ISP dictionaries, below CityEntries and ISPEntries. The parse points
// equal bytes at one entry, so two rows of a view name the same (city, ISP)
// exactly when their entry pairs are equal, with or without an interner.
func (v *BatchView) CityEntry(i int) uint32 { return v.city.idx[i] }
func (v *BatchView) ISPEntry(i int) uint32  { return v.isp.idx[i] }
func (v *BatchView) CityEntries() int       { return len(v.city.spans) }
func (v *BatchView) ISPEntries() int        { return len(v.isp.spans) }

// DomainID is row i's domain id in the interner that parsed the view, or
// NoID when that interner did not keep the string or there was none. Ids
// from two interners do not compare: see ViewPool.Adopt.
func (v *BatchView) DomainID(i int) uint32 { return v.domain.ids[v.domain.idx[i]] }

// ASN, Unix, At, Rank and PLTMs read the lazy columns.
func (v *BatchView) ASN(i int) int    { v.decode(); return int(v.asn[i]) }
func (v *BatchView) Unix(i int) int64 { v.decode(); return v.ts[i] }

// At is the record timestamp, truncated to whole seconds in UTC exactly as
// a CSV row carries it.
func (v *BatchView) At(i int) time.Time { return time.Unix(v.Unix(i), 0).UTC() }

func (v *BatchView) Rank(i int) int      { v.decode(); return int(v.rank[i]) }
func (v *BatchView) Popular(i int) bool  { return bitAt(v.popular, i) }
func (v *BatchView) PTTMs(i int) float64 { return v.ptt[i] }
func (v *BatchView) PLTMs(i int) float64 { v.decode(); return v.plt[i] }

func (v *BatchView) Condition(i int) weather.Condition { return weather.Condition(v.weather[i]) }

func (v *BatchView) HasWx(i int) bool     { return bitAt(v.hasWx, i) }
func (v *BatchView) Benchmark(i int) bool { return bitAt(v.benchmark, i) }
func (v *BatchView) Google(i int) bool    { return bitAt(v.google, i) }

// RecordAt assembles row i into r. Its strings are interned or copied, never
// aliases of the frame, so the record outlives the view.
func (v *BatchView) RecordAt(i int, r *extension.Record) {
	v.decode()
	v.fill(i, r, v.UserID(i), v.Country(i))
}

// fill assembles row i into r with the given user ID and country; the lazy
// columns must be decoded.
func (v *BatchView) fill(i int, r *extension.Record, userID, country string) {
	*r = extension.Record{
		UserID:    userID,
		City:      v.City(i),
		Country:   country,
		ISP:       v.ISP(i),
		ASN:       int(v.asn[i]),
		At:        v.At(i),
		Domain:    v.Domain(i),
		Rank:      int(v.rank[i]),
		Popular:   v.Popular(i),
		PTTMs:     v.ptt[i],
		PLTMs:     v.plt[i],
		Condition: v.Condition(i),
		HasWx:     v.HasWx(i),
		Benchmark: v.Benchmark(i),
		Google:    v.Google(i),
	}
}

// AppendRecords materialises every row (for the offline consumers that want
// a record slice) and returns the extended dst. It copies each user ID and
// country entry once, not once per row.
func (v *BatchView) AppendRecords(dst []extension.Record) []extension.Record {
	v.decode()
	base := len(dst)
	dst = slices.Grow(dst, v.n)[:base+v.n]
	users, countries := v.userID.copies(), v.country.copies()
	for i := 0; i < v.n; i++ {
		v.fill(i, &dst[base+i], users[v.userID.idx[i]], countries[v.country.idx[i]])
	}
	return dst
}

// ViewPool recycles BatchViews (frame buffers and column slices) and
// interns the keyed dictionary strings across frames. Read and Put are safe
// for concurrent use.
type ViewPool struct {
	pool   sync.Pool
	intern Interner
}

// Interner is the table p interns keyed strings through, for callers that
// must key strings from elsewhere by the same ids.
func (p *ViewPool) Interner() *Interner { return &p.intern }

// Adopt makes v's keyed entries p's: a view another pool or ParseBatchView
// parsed has them interned through p, once per dictionary entry, so its
// strings are p's canonical copies and its ids p's. A view p parsed is left
// as it is. Whoever keys state by these ids adopts every view it is handed.
func (p *ViewPool) Adopt(v *BatchView) {
	if v.in == &p.intern {
		return
	}
	v.in = &p.intern
	for _, d := range [...]*dictCol{&v.city, &v.isp, &v.domain} {
		p.intern.intern(d.entries, d.ids, d.payload, d.spans)
	}
}

func (p *ViewPool) get() *BatchView {
	if v, ok := p.pool.Get().(*BatchView); ok {
		return v
	}
	return &BatchView{}
}

// Read decodes the next frame from a stream of concatenated frames into a
// pooled view. It returns io.EOF at a clean end of stream. The caller must
// release the view with Put when done.
func (p *ViewPool) Read(r io.Reader) (*BatchView, error) {
	v := p.get()
	frame, err := readBatchFrame(r, v.frame[:0])
	if err != nil {
		p.Put(v)
		return nil, err
	}
	v.frame = frame
	if perr := v.parse(frame, &p.intern); perr != nil {
		p.Put(v)
		return nil, perr
	}
	return v, nil
}

// Parse decodes a frame already held in memory, copying it into the pooled
// view's buffer so the caller's slice is free immediately.
func (p *ViewPool) Parse(frame []byte) (*BatchView, error) {
	v := p.get()
	v.frame = append(v.frame[:0], frame...)
	if err := v.parse(v.frame, &p.intern); err != nil {
		p.Put(v)
		return nil, err
	}
	return v, nil
}

// Put returns a view to the pool. The view and every slice or string read
// through its frame-aliasing accessors become invalid.
func (p *ViewPool) Put(v *BatchView) {
	if v == nil {
		return
	}
	v.n = 0
	v.popular, v.hasWx, v.benchmark, v.google, v.weather = nil, nil, nil, nil, nil
	p.pool.Put(v)
}
