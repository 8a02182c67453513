package dataset

// BatchEncoder is the one SLB1 encoder. It keeps one set of scratch buffers
// (dictionary slot table, gathered columns, payload staging, float
// quantisation) across frames: a campaign client flushing a 512-record
// batch every few milliseconds would otherwise allocate them per column per
// frame, forever.
//
// It has two front doors over one body: Encode reads a record slice, and
// EncodeRows re-encodes a subset of an already-decoded view column-wise, so
// splitting a frame (by ring owner, or to fit the WAL's payload bound) never
// builds an extension.Record. Each column is gathered into typed scratch by
// one loop over the records or the view's rows, with the choice of column
// made once outside it, and then encoded from there. The two doors differ
// in how a dictionary column is built: Encode hashes each row's string into
// the slot table, EncodeRows remaps the view's entry indices and copies
// entry bytes, hashing only a user-ID or country entry, once, the first
// time a row names it. MarshalBatch is Encode on a fresh encoder.
//
// Not safe for concurrent use, and the returned frame is only valid until
// the next Encode/EncodeRows call — both match the single-goroutine flush
// loops of the collector and cluster clients that own one.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/maphash"
	"math"
	"unsafe"

	"starlinkview/internal/extension"
	"starlinkview/internal/varint"
)

type BatchEncoder struct {
	buf     []byte                    // frame under construction; returned and reused
	slots   slotTable                 // a dictionary's entries by hash, cleared per column
	entries []string                  // Encode: a dictionary's entries in output order
	remap   []uint32                  // EncodeRows: view entry → output index+1 (0: unmet), cleared per column
	order   []uint32                  // EncodeRows: view entries in output order
	seen    [1 << seenBits]seenString // Encode: string addresses indexed, cleared per column
	strs    []string                  // gathered columns
	ints    []int64
	floats  []float64
	millis  []int64
	idxBuf  []byte
	payload []byte
}

// seenString is a string stringDict has indexed, by its bytes' address
// and length, with its index plus one (0: empty slot). The address is
// compared, never dereferenced, and only while the strings being indexed
// are alive, so it cannot name another string's bytes.
type seenString struct {
	p  uintptr
	n  int
	ix uint32
}

// seenBits sizes the direct-mapped cache of string addresses: room for a
// frame's cities, ISPs and countries.
const seenBits = 6

// batchColumns is where the encoder reads its rows from: records (Encode)
// or, when view is set, the view's rows in the order given (EncodeRows).
type batchColumns struct {
	recs []extension.Record
	view *BatchView
	rows []int32
}

func (c *batchColumns) len() int {
	if c.view != nil {
		return len(c.rows)
	}
	return len(c.recs)
}

// Encode renders records as one columnar frame. The returned slice is owned
// by the encoder.
func (e *BatchEncoder) Encode(records []extension.Record) []byte {
	return e.encode(&batchColumns{recs: records})
}

// EncodeRows renders the given rows of v, in the order given, as one frame —
// byte-identical to Encode over the same rows materialised, without
// materialising them. The returned slice is owned by the encoder; v is only
// read.
func (e *BatchEncoder) EncodeRows(v *BatchView, rows []int32) []byte {
	v.decode()
	return e.encode(&batchColumns{view: v, rows: rows})
}

// Footprint is about how many bytes the encoder's scratch keeps between
// frames: every buffer at capacity. The slot table and the gathered columns
// grow with the largest frame encoded, and the index remap with the largest
// dictionary a view handed to EncodeRows has had. A pool of encoders can
// use it to drop one a giant frame has grown.
func (e *BatchEncoder) Footprint() int {
	return cap(e.buf) + cap(e.idxBuf) + cap(e.payload) + 8*cap(e.slots.slots) +
		16*cap(e.entries) + 16*cap(e.strs) + 8*cap(e.ints) + 8*cap(e.floats) +
		8*cap(e.millis) + 4*cap(e.remap) + 4*cap(e.order)
}

// encode writes the frame: header, the fifteen columns in schema order, CRC.
func (e *BatchEncoder) encode(c *batchColumns) []byte {
	n := c.len()
	dst := e.buf[:0]
	dst = append(dst, BatchMagic...)
	dst = append(dst, 0, 0, 0, 0) // bodyLen back-patched below
	bodyStart := len(dst)

	dst = append(dst, BatchVersion)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, numBatchCols)

	dst = e.dictCol(dst, colUserID, c)
	dst = e.dictCol(dst, colCity, c)
	dst = e.dictCol(dst, colCountry, c)
	dst = e.dictCol(dst, colISP, c)
	dst = e.deltaCol(dst, colASN, c)
	dst = e.deltaCol(dst, colTimestamp, c)
	dst = e.dictCol(dst, colDomain, c)
	dst = e.deltaCol(dst, colRank, c)
	dst = bitsCol(dst, colPopular, c)
	dst = e.floatCol(dst, colPTT, c)
	dst = e.floatCol(dst, colPLT, c)
	dst = weatherCol(dst, c)
	dst = bitsCol(dst, colHasWeather, c)
	dst = bitsCol(dst, colBenchmark, c)
	dst = bitsCol(dst, colGoogle, c)

	body := dst[bodyStart:]
	binary.LittleEndian.PutUint32(dst[bodyStart-4:], uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, batchCRC))
	e.buf = dst
	return dst
}

// dictCol writes dictionary column id from c's view when it has one, and
// from its records otherwise.
func (e *BatchEncoder) dictCol(dst []byte, id byte, c *batchColumns) []byte {
	if c.view != nil {
		e.viewDict(c.view.dict(id), c.rows, !keyedCol(id))
	} else {
		e.stringDict(e.gatherStrings(id, c.recs))
	}
	dst = appendColHeader(dst, id, encDict, len(e.payload))
	return append(dst, e.payload...)
}

// gatherStrings copies string column id of recs into e.strs.
func (e *BatchEncoder) gatherStrings(id byte, recs []extension.Record) []string {
	out := grow(e.strs, len(recs))
	e.strs = out
	switch id {
	case colUserID:
		for i := range recs {
			out[i] = recs[i].UserID
		}
	case colCity:
		for i := range recs {
			out[i] = recs[i].City
		}
	case colCountry:
		for i := range recs {
			out[i] = recs[i].Country
		}
	case colISP:
		for i := range recs {
			out[i] = recs[i].ISP
		}
	default:
		for i := range recs {
			out[i] = recs[i].Domain
		}
	}
	return out
}

// stringDict stages in e.payload the dictionary of strs, entries in order
// of first use. A string whose bytes sit at the address and length of an
// earlier row's in e.seen is that row's string and takes its index:
// records built from shared tables or interned strings repeat a city's,
// ISP's or country's string header, not just its bytes. Any other string
// is hashed once into the slot table, which is sized from the row count,
// so a probe always finds an empty slot.
func (e *BatchEncoder) stringDict(strs []string) {
	t := &e.slots
	t.reset(len(strs))
	clear(e.seen[:])
	e.entries = e.entries[:0]
	e.idxBuf = e.idxBuf[:0]
	for _, s := range strs {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		c := &e.seen[p*0x9e3779b97f4a7c15>>(64-seenBits)]
		var ix uint32
		if c.p == p && c.n == len(s) && c.ix != 0 {
			ix = c.ix - 1
		} else {
			h := maphash.String(dictSeed, s)
			tag := slotTag(h)
			for j := t.home(h); ; j = (j + 1) & t.mask {
				sl := t.slots[j]
				if sl == 0 {
					ix = uint32(len(e.entries))
					e.entries = append(e.entries, s)
					t.slots[j] = tag | uint64(ix+1)
					break
				}
				if sl&^(1<<32-1) == tag && e.entries[uint32(sl)-1] == s {
					ix = uint32(sl) - 1
					break
				}
			}
			*c = seenString{p, len(s), ix + 1}
		}
		e.idxBuf = varint.AppendUvarint(e.idxBuf, uint64(ix))
	}
	e.payload = binary.AppendUvarint(e.payload[:0], uint64(len(e.entries)))
	for _, s := range e.entries {
		e.payload = binary.AppendUvarint(e.payload, uint64(len(s)))
		e.payload = append(e.payload, s...)
	}
	e.payload = append(e.payload, e.idxBuf...)
}

// viewDict stages in e.payload the dictionary of d's entries at rows, by
// index: the first row naming a view entry gives it the next output index,
// which is the order stringDict gives the same rows' strings. That takes
// distinct output entries having distinct bytes. A keyed column has that
// from the parse's canonicalise; for the others (dedup) an entry met for
// the first time is looked up by its bytes among the entries already out,
// and a repeat takes their index.
func (e *BatchEncoder) viewDict(d *dictCol, rows []int32, dedup bool) {
	e.remap = grow(e.remap, len(d.spans))
	clear(e.remap)
	e.order = e.order[:0]
	e.idxBuf = e.idxBuf[:0]
	if dedup {
		e.slots.reset(min(len(rows), len(d.spans)))
	}
	for _, r := range rows {
		k := d.idx[r]
		o := e.remap[k]
		if o == 0 {
			if dedup {
				o = e.firstWithBytes(d, k)
			}
			if o == 0 {
				e.order = append(e.order, k)
				o = uint32(len(e.order))
			}
			e.remap[k] = o
		}
		e.idxBuf = varint.AppendUvarint(e.idxBuf, uint64(o-1))
	}
	e.payload = binary.AppendUvarint(e.payload[:0], uint64(len(e.order)))
	for _, k := range e.order {
		b := d.entry(k)
		e.payload = binary.AppendUvarint(e.payload, uint64(len(b)))
		e.payload = append(e.payload, b...)
	}
	e.payload = append(e.payload, e.idxBuf...)
}

// firstWithBytes returns the output index plus one of the entry already
// out with view entry k's bytes, or 0 after noting k as the next entry out.
func (e *BatchEncoder) firstWithBytes(d *dictCol, k uint32) uint32 {
	t := &e.slots
	b := d.entry(k)
	h := maphash.Bytes(dictSeed, b)
	tag := slotTag(h)
	for j := t.home(h); ; j = (j + 1) & t.mask {
		sl := t.slots[j]
		if sl == 0 {
			t.slots[j] = tag | uint64(len(e.order)+1)
			return 0
		}
		if o := uint32(sl); sl&^(1<<32-1) == tag && bytes.Equal(d.entry(e.order[o-1]), b) {
			return o
		}
	}
}

// pick sets out[j] to src[rows[j]].
func pick[T any](out, src []T, rows []int32) {
	for j, r := range rows {
		out[j] = src[r]
	}
}

// gatherInts copies integer column id into e.ints.
func (e *BatchEncoder) gatherInts(id byte, c *batchColumns) []int64 {
	out := grow(e.ints, c.len())
	e.ints = out
	if v := c.view; v != nil {
		src := v.rank
		switch id {
		case colASN:
			src = v.asn
		case colTimestamp:
			src = v.ts
		}
		pick(out, src, c.rows)
		return out
	}
	recs := c.recs
	switch id {
	case colASN:
		for i := range recs {
			out[i] = int64(recs[i].ASN)
		}
	case colTimestamp:
		for i := range recs {
			out[i] = recs[i].At.Unix()
		}
	default:
		for i := range recs {
			out[i] = int64(recs[i].Rank)
		}
	}
	return out
}

func (e *BatchEncoder) deltaCol(dst []byte, id byte, c *batchColumns) []byte {
	e.payload = e.payload[:0]
	prev := int64(0)
	for _, v := range e.gatherInts(id, c) {
		e.payload = varint.AppendUvarint(e.payload, varint.Zigzag(v-prev))
		prev = v
	}
	dst = appendColHeader(dst, id, encDelta, len(e.payload))
	return append(dst, e.payload...)
}

// bitsCol writes boolean column id, gathering each row's bit straight into
// the frame.
func bitsCol(dst []byte, id byte, c *batchColumns) []byte {
	n := c.len()
	nb := (n + 7) / 8
	dst = appendColHeader(dst, id, encBits, nb)
	base := len(dst)
	dst = append(dst, make([]byte, nb)...)
	out := dst[base:]
	if v := c.view; v != nil {
		src := v.google
		switch id {
		case colPopular:
			src = v.popular
		case colHasWeather:
			src = v.hasWx
		case colBenchmark:
			src = v.benchmark
		}
		for j, r := range c.rows {
			out[j/8] |= src[r/8] >> (r % 8) & 1 << (j % 8)
		}
		return dst
	}
	recs := c.recs
	switch id {
	case colPopular:
		for i := range recs {
			out[i/8] |= b2u(recs[i].Popular) << (i % 8)
		}
	case colHasWeather:
		for i := range recs {
			out[i/8] |= b2u(recs[i].HasWx) << (i % 8)
		}
	case colBenchmark:
		for i := range recs {
			out[i/8] |= b2u(recs[i].Benchmark) << (i % 8)
		}
	default:
		for i := range recs {
			out[i/8] |= b2u(recs[i].Google) << (i % 8)
		}
	}
	return dst
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// weatherCol writes the weather column, one condition byte per row.
func weatherCol(dst []byte, c *batchColumns) []byte {
	n := c.len()
	dst = appendColHeader(dst, colWeather, encU8, n)
	base := len(dst)
	dst = append(dst, make([]byte, n)...)
	out := dst[base:]
	if v := c.view; v != nil {
		pick(out, v.weather, c.rows)
		return dst
	}
	for i := range c.recs {
		out[i] = byte(c.recs[i].Condition)
	}
	return dst
}

// gatherFloats copies float column id into e.floats.
func (e *BatchEncoder) gatherFloats(id byte, c *batchColumns) []float64 {
	out := grow(e.floats, c.len())
	e.floats = out
	if v := c.view; v != nil {
		src := v.ptt
		if id == colPLT {
			src = v.plt
		}
		pick(out, src, c.rows)
		return out
	}
	if id == colPLT {
		for i := range c.recs {
			out[i] = c.recs[i].PLTMs
		}
	} else {
		for i := range c.recs {
			out[i] = c.recs[i].PTTMs
		}
	}
	return out
}

// floatCol writes float column id as milli-scaled deltas, or as raw bits
// of the quantised values when any value is off the milli grid.
func (e *BatchEncoder) floatCol(dst []byte, id byte, c *batchColumns) []byte {
	quant := e.gatherFloats(id, c)
	e.millis = grow(e.millis, len(quant))
	allMilli := true
	for i, x := range quant {
		m, q, ok := quantizeMilli(x)
		e.millis[i], quant[i] = m, q
		allMilli = allMilli && ok
	}
	if allMilli {
		e.payload = e.payload[:0]
		prev := int64(0)
		for _, m := range e.millis {
			e.payload = varint.AppendUvarint(e.payload, varint.Zigzag(m-prev))
			prev = m
		}
		dst = appendColHeader(dst, id, encF64Milli, len(e.payload))
		return append(dst, e.payload...)
	}
	dst = appendColHeader(dst, id, encF64Raw, 8*len(quant))
	for _, q := range quant {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q))
	}
	return dst
}
