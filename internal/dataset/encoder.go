package dataset

// BatchEncoder is the one SLB1 encoder. It keeps one set of scratch buffers
// (dictionary index, payload staging, float quantisation) across frames: a
// campaign client flushing a 512-record batch every few milliseconds would
// otherwise allocate a dictionary map, an entries slice and two payload
// buffers per dictionary column per frame, forever.
//
// It has two front doors over one body: Encode reads a record slice, and
// EncodeRows re-encodes a subset of an already-decoded view column-wise, so
// splitting a frame (by ring owner, or to fit the WAL's payload bound) never
// builds an extension.Record. The two differ only in how a dictionary column
// is built: Encode indexes each row's string in a map, EncodeRows remaps the
// view's entry indices and copies entry bytes, hashing no string.
// MarshalBatch is Encode on a fresh encoder.
//
// Not safe for concurrent use, and the returned frame is only valid until
// the next Encode/EncodeRows call — both match the single-goroutine flush
// loops of the collector and cluster clients that own one.

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"starlinkview/internal/extension"
)

type BatchEncoder struct {
	buf     []byte            // frame under construction; returned and reused
	index   map[string]uint64 // Encode: dictionary build index, cleared per column
	entries []string
	remap   []uint32 // EncodeRows: view entry → output index+1 (0: unused), cleared per column
	order   []uint32 // EncodeRows: view entries in output order
	idxBuf  []byte
	payload []byte
	millis  []int64
	quant   []float64
}

// batchColumns is where the encoder reads its n rows from: one getter per
// wire column, indexed by position in the frame being written. The
// dictionary columns come either from strings (Encode) or, when view is
// set, from the view's dictionaries at rows (EncodeRows).
type batchColumns struct {
	n int

	userID, city, country, isp, domain func(i int) string
	view                               *BatchView
	rows                               []int32

	asn, unix, rank                   func(i int) int64
	ptt, plt                          func(i int) float64
	weather                           func(i int) byte
	popular, hasWx, benchmark, google func(i int) bool
}

// Encode renders records as one columnar frame. The returned slice is owned
// by the encoder.
func (e *BatchEncoder) Encode(records []extension.Record) []byte {
	return e.encode(&batchColumns{
		n:         len(records),
		userID:    func(i int) string { return records[i].UserID },
		city:      func(i int) string { return records[i].City },
		country:   func(i int) string { return records[i].Country },
		isp:       func(i int) string { return records[i].ISP },
		asn:       func(i int) int64 { return int64(records[i].ASN) },
		unix:      func(i int) int64 { return records[i].At.Unix() },
		domain:    func(i int) string { return records[i].Domain },
		rank:      func(i int) int64 { return int64(records[i].Rank) },
		popular:   func(i int) bool { return records[i].Popular },
		ptt:       func(i int) float64 { return records[i].PTTMs },
		plt:       func(i int) float64 { return records[i].PLTMs },
		weather:   func(i int) byte { return byte(records[i].Condition) },
		hasWx:     func(i int) bool { return records[i].HasWx },
		benchmark: func(i int) bool { return records[i].Benchmark },
		google:    func(i int) bool { return records[i].Google },
	})
}

// EncodeRows renders the given rows of v, in the order given, as one frame —
// byte-identical to Encode over the same rows materialised, without
// materialising them. The returned slice is owned by the encoder; v is only
// read.
func (e *BatchEncoder) EncodeRows(v *BatchView, rows []int32) []byte {
	return e.encode(&batchColumns{
		n:         len(rows),
		view:      v,
		rows:      rows,
		asn:       func(i int) int64 { return v.asn[rows[i]] },
		unix:      func(i int) int64 { return v.ts[rows[i]] },
		rank:      func(i int) int64 { return v.rank[rows[i]] },
		popular:   func(i int) bool { return bitAt(v.popular, int(rows[i])) },
		ptt:       func(i int) float64 { return v.ptt[rows[i]] },
		plt:       func(i int) float64 { return v.plt[rows[i]] },
		weather:   func(i int) byte { return v.weather[rows[i]] },
		hasWx:     func(i int) bool { return bitAt(v.hasWx, int(rows[i])) },
		benchmark: func(i int) bool { return bitAt(v.benchmark, int(rows[i])) },
		google:    func(i int) bool { return bitAt(v.google, int(rows[i])) },
	})
}

// Footprint is about how many bytes the encoder's scratch keeps between
// frames: its buffers at capacity, per dictionary entry slot a string
// header plus roughly 48 B of index map, which keeps its buckets when
// cleared, and the index remap, which grows with the largest dictionary a
// view handed to EncodeRows has had. A pool of encoders can use it to drop
// one a giant frame has grown.
func (e *BatchEncoder) Footprint() int {
	return cap(e.buf) + cap(e.idxBuf) + cap(e.payload) +
		8*cap(e.millis) + 8*cap(e.quant) + 64*cap(e.entries) +
		4*cap(e.remap) + 4*cap(e.order)
}

// encode writes the frame: header, the fifteen columns in schema order, CRC.
func (e *BatchEncoder) encode(c *batchColumns) []byte {
	dst := e.buf[:0]
	dst = append(dst, BatchMagic...)
	dst = append(dst, 0, 0, 0, 0) // bodyLen back-patched below
	bodyStart := len(dst)

	dst = append(dst, BatchVersion)
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = append(dst, numBatchCols)

	dst = e.dictCol(dst, colUserID, c, c.userID)
	dst = e.dictCol(dst, colCity, c, c.city)
	dst = e.dictCol(dst, colCountry, c, c.country)
	dst = e.dictCol(dst, colISP, c, c.isp)
	dst = e.deltaCol(dst, colASN, c.n, c.asn)
	dst = e.deltaCol(dst, colTimestamp, c.n, c.unix)
	dst = e.dictCol(dst, colDomain, c, c.domain)
	dst = e.deltaCol(dst, colRank, c.n, c.rank)
	dst = e.bitsCol(dst, colPopular, c.n, c.popular)
	dst = e.floatCol(dst, colPTT, c.n, c.ptt)
	dst = e.floatCol(dst, colPLT, c.n, c.plt)
	dst = appendColHeader(dst, colWeather, encU8, c.n)
	for i := 0; i < c.n; i++ {
		dst = append(dst, c.weather(i))
	}
	dst = e.bitsCol(dst, colHasWeather, c.n, c.hasWx)
	dst = e.bitsCol(dst, colBenchmark, c.n, c.benchmark)
	dst = e.bitsCol(dst, colGoogle, c.n, c.google)

	body := dst[bodyStart:]
	binary.LittleEndian.PutUint32(dst[bodyStart-4:], uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, batchCRC))
	e.buf = dst
	return dst
}

// dictCol writes dictionary column id from c's view when it has one, and
// from get otherwise.
func (e *BatchEncoder) dictCol(dst []byte, id byte, c *batchColumns, get func(int) string) []byte {
	if c.view != nil {
		e.viewDict(c.view.dict(id), c.rows)
	} else {
		e.stringDict(c.n, get)
	}
	dst = appendColHeader(dst, id, encDict, len(e.payload))
	return append(dst, e.payload...)
}

// stringDict stages in e.payload the dictionary of the n strings get
// returns, entries in order of first use.
func (e *BatchEncoder) stringDict(n int, get func(int) string) {
	if e.index == nil {
		e.index = make(map[string]uint64, 64)
	}
	clear(e.index)
	e.entries = e.entries[:0]
	e.idxBuf = e.idxBuf[:0]
	for i := 0; i < n; i++ {
		s := get(i)
		ix, ok := e.index[s]
		if !ok {
			ix = uint64(len(e.entries))
			e.index[s] = ix
			e.entries = append(e.entries, s)
		}
		e.idxBuf = binary.AppendUvarint(e.idxBuf, ix)
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
// distinct entries having distinct bytes, which the parse's canonicalise
// guarantees.
func (e *BatchEncoder) viewDict(d *dictCol, rows []int32) {
	e.remap = grow(e.remap, len(d.spans))
	clear(e.remap)
	e.order = e.order[:0]
	e.idxBuf = e.idxBuf[:0]
	for _, r := range rows {
		k := d.idx[r]
		o := e.remap[k]
		if o == 0 {
			e.order = append(e.order, k)
			o = uint32(len(e.order))
			e.remap[k] = o
		}
		e.idxBuf = binary.AppendUvarint(e.idxBuf, uint64(o-1))
	}
	e.payload = binary.AppendUvarint(e.payload[:0], uint64(len(e.order)))
	for _, k := range e.order {
		b := d.entry(k)
		e.payload = binary.AppendUvarint(e.payload, uint64(len(b)))
		e.payload = append(e.payload, b...)
	}
	e.payload = append(e.payload, e.idxBuf...)
}

func (e *BatchEncoder) deltaCol(dst []byte, id byte, n int, get func(int) int64) []byte {
	e.payload = e.payload[:0]
	prev := int64(0)
	for i := 0; i < n; i++ {
		v := get(i)
		e.payload = binary.AppendUvarint(e.payload, zigzag(v-prev))
		prev = v
	}
	dst = appendColHeader(dst, id, encDelta, len(e.payload))
	return append(dst, e.payload...)
}

func (e *BatchEncoder) bitsCol(dst []byte, id byte, n int, get func(int) bool) []byte {
	nb := (n + 7) / 8
	dst = appendColHeader(dst, id, encBits, nb)
	base := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i := 0; i < n; i++ {
		if get(i) {
			dst[base+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

func (e *BatchEncoder) floatCol(dst []byte, id byte, n int, get func(int) float64) []byte {
	if cap(e.millis) < n {
		e.millis = make([]int64, n)
		e.quant = make([]float64, n)
	}
	e.millis = e.millis[:n]
	e.quant = e.quant[:n]
	allMilli := true
	for i := 0; i < n; i++ {
		m, q, ok := quantizeMilli(get(i))
		e.millis[i], e.quant[i] = m, q
		if !ok {
			allMilli = false
		}
	}
	if allMilli {
		e.payload = e.payload[:0]
		prev := int64(0)
		for _, m := range e.millis {
			e.payload = binary.AppendUvarint(e.payload, zigzag(m-prev))
			prev = m
		}
		dst = appendColHeader(dst, id, encF64Milli, len(e.payload))
		return append(dst, e.payload...)
	}
	dst = appendColHeader(dst, id, encF64Raw, 8*n)
	for _, q := range e.quant {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q))
	}
	return dst
}
