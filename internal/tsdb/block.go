// Package tsdb is an embedded, dependency-free metrics time-series store:
// it scrapes a local obs.Registry (or a coordinator's federated merge) on a
// fixed interval, appends each series' samples into compressed blocks, and
// answers instant/range/rate/quantile queries over the retained window. An
// SLO rules engine evaluates multi-window burn-rate and threshold alerts
// against the same store each scrape tick.
//
// The compression is the Gorilla lineage adapted to the batch-wire idioms
// already in internal/dataset: delta-of-delta zigzag varints for the
// millisecond timestamps, and for values either double-delta zigzag
// varints (when every value in the block is integral — the counter case,
// which dominates a metrics workload) or XOR-of-bits uvarints (the general
// float case, exact for NaN and ±Inf). A steady counter scraped at a fixed
// interval costs ~2 bytes per sample: one byte of timestamp
// delta-of-delta (zero) and one byte of value double-delta.
package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"starlinkview/internal/varint"
)

// Block wire layout (version 1):
//
//	u8      version (1)
//	uvarint sample count
//	u8      value encoding (encInt | encXOR)
//	uvarint timestamp payload length
//	bytes   timestamp payload
//	uvarint value payload length
//	bytes   value payload
//
// Timestamp payload: t0 as zigzag varint, then d1 = t1-t0 zigzag varint,
// then a delta-of-delta token stream. Value payload per encoding:
//
//	encInt: v0 zigzag varint, d1 zigzag varint, then a delta-of-delta
//	        token stream over the int64 representation. Chosen only when
//	        every value is integral with |v| < 2^53, so the int64 round
//	        trip is float64-exact and deltas cannot overflow.
//	encXOR: a token stream of bits XOR prevBits over the IEEE-754 bits,
//	        prev starting at 0. Bit-exact for every float64 including NaN
//	        and the infinities.
//
// Token streams exploit that the common case — a counter advancing at a
// steady rate scraped at a steady interval — produces long runs of zeros
// (zero delta-of-delta, zero XOR): a nonzero element z is one uvarint
// zigzag(z) (for XOR, the raw bits, which are nonzero), and a run of k
// zeros is the byte 0x00 followed by uvarint(k-1). A steady counter
// therefore costs ~4 bytes per 120-sample block beyond the header, two
// orders of magnitude below the 16-byte naive (int64,float64) pair.
const (
	blockVersion = 1

	encInt byte = 1
	encXOR byte = 2
)

// maxBlockSamples bounds decode-side allocation: a hostile count field can
// claim at most this many samples before the payload-length cross-check
// rejects it. Encoders seal far below this.
const maxBlockSamples = 1 << 16

var (
	errBlockShort   = errors.New("tsdb: block truncated")
	errBlockTrail   = errors.New("tsdb: trailing bytes after block")
	errBlockVersion = errors.New("tsdb: unknown block version")
	errBlockEnc     = errors.New("tsdb: unknown value encoding")
	errBlockCount   = errors.New("tsdb: implausible sample count")
)

// integral reports whether v survives an int64 round trip exactly and is
// small enough that first and second differences cannot overflow.
func integral(v float64) bool {
	return v == math.Trunc(v) && math.Abs(v) < 1<<53
}

// tokenWriter emits a stream of uint64 tokens with zero runs collapsed:
// a nonzero token is one plain uvarint; a run of k zeros is 0x00 followed
// by uvarint(k-1). Nonzero tokens can never begin with a 0x00 byte (a
// uvarint's first byte is zero only for the value zero), so the decoder
// is unambiguous.
type tokenWriter struct {
	buf     []byte
	zeroRun uint64
}

func (w *tokenWriter) put(tok uint64) {
	if tok == 0 {
		w.zeroRun++
		return
	}
	w.flush()
	w.buf = binary.AppendUvarint(w.buf, tok)
}

func (w *tokenWriter) flush() {
	if w.zeroRun > 0 {
		w.buf = append(w.buf, 0)
		w.buf = binary.AppendUvarint(w.buf, w.zeroRun-1)
		w.zeroRun = 0
	}
}

// tokenReader is the inverse, reading from a bounds-checked cursor.
type tokenReader struct {
	c       varint.Cursor
	zeroRun uint64
}

func (r *tokenReader) next() (uint64, error) {
	if r.zeroRun > 0 {
		r.zeroRun--
		return 0, nil
	}
	tok, err := r.c.Uvarint()
	if err != nil {
		return 0, err
	}
	if tok != 0 {
		return tok, nil
	}
	run, err := r.c.Uvarint()
	if err != nil {
		return 0, err
	}
	r.zeroRun = run // this zero plus `run` more
	return 0, nil
}

func (r *tokenReader) done() bool { return r.zeroRun == 0 && r.c.Off == len(r.c.Buf) }

// encodeBlock seals one series window into the block wire format. The
// slices must be the same nonzero length and timestamps must be
// strictly increasing (the appender guarantees both).
func encodeBlock(tsMs []int64, vals []float64) []byte {
	n := len(tsMs)
	enc := encInt
	for _, v := range vals {
		if !integral(v) {
			enc = encXOR
			break
		}
	}

	// Timestamps: t0, d1, then a dod token stream.
	var tw tokenWriter
	tw.buf = make([]byte, 0, 16)
	tw.buf = binary.AppendUvarint(tw.buf, varint.Zigzag(tsMs[0]))
	if n > 1 {
		d := tsMs[1] - tsMs[0]
		tw.buf = binary.AppendUvarint(tw.buf, varint.Zigzag(d))
		prevDelta := d
		for i := 2; i < n; i++ {
			d = tsMs[i] - tsMs[i-1]
			tw.put(varint.Zigzag(d - prevDelta))
			prevDelta = d
		}
	}
	tw.flush()
	ts := tw.buf

	var vw tokenWriter
	vw.buf = make([]byte, 0, 16)
	switch enc {
	case encInt:
		vw.buf = binary.AppendUvarint(vw.buf, varint.Zigzag(int64(vals[0])))
		if n > 1 {
			d := int64(vals[1]) - int64(vals[0])
			vw.buf = binary.AppendUvarint(vw.buf, varint.Zigzag(d))
			prevDelta := d
			for i := 2; i < n; i++ {
				d = int64(vals[i]) - int64(vals[i-1])
				vw.put(varint.Zigzag(d - prevDelta))
				prevDelta = d
			}
		}
	case encXOR:
		var prev uint64
		for _, v := range vals {
			bits := math.Float64bits(v)
			vw.put(bits ^ prev)
			prev = bits
		}
	}
	vw.flush()
	vs := vw.buf

	out := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(ts)+len(vs))
	out = append(out, blockVersion)
	out = binary.AppendUvarint(out, uint64(n))
	out = append(out, enc)
	out = binary.AppendUvarint(out, uint64(len(ts)))
	out = append(out, ts...)
	out = binary.AppendUvarint(out, uint64(len(vs)))
	out = append(out, vs...)
	return out
}

// decodeBlock is the strict inverse of encodeBlock: it rejects unknown
// versions/encodings, implausible counts (cross-checked against the
// payload lengths before allocating), truncated payloads, and trailing
// bytes. Appends the decoded samples to the destination slices and
// returns them.
func decodeBlock(buf []byte, tsMs []int64, vals []float64) ([]int64, []float64, error) {
	c := varint.Cursor{Buf: buf}
	ver, err := c.U8()
	if err != nil {
		return nil, nil, err
	}
	if ver != blockVersion {
		return nil, nil, fmt.Errorf("%w: %d", errBlockVersion, ver)
	}
	count64, err := c.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if count64 == 0 || count64 > maxBlockSamples {
		return nil, nil, fmt.Errorf("%w: %d", errBlockCount, count64)
	}
	n := int(count64)
	enc, err := c.U8()
	if err != nil {
		return nil, nil, err
	}
	if enc != encInt && enc != encXOR {
		return nil, nil, fmt.Errorf("%w: %d", errBlockEnc, enc)
	}
	tsLen, err := c.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if tsLen > uint64(len(buf)) {
		return nil, nil, errBlockShort
	}
	tsBuf, err := c.Bytes(int(tsLen))
	if err != nil {
		return nil, nil, err
	}
	valLen, err := c.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if valLen > uint64(len(buf)) {
		return nil, nil, errBlockShort
	}
	valBuf, err := c.Bytes(int(valLen))
	if err != nil {
		return nil, nil, err
	}
	if c.Off != len(buf) {
		return nil, nil, errBlockTrail
	}

	tsMs, err = decodeTimestamps(tsBuf, n, tsMs)
	if err != nil {
		return nil, nil, err
	}
	vals, err = decodeValues(valBuf, n, enc, vals)
	if err != nil {
		return nil, nil, err
	}
	return tsMs, vals, nil
}

func decodeTimestamps(buf []byte, n int, out []int64) ([]int64, error) {
	r := tokenReader{c: varint.Cursor{Buf: buf}}
	u, err := r.c.Uvarint()
	if err != nil {
		return nil, err
	}
	t := varint.Unzigzag(u)
	out = append(out, t)
	if n > 1 {
		u, err = r.c.Uvarint()
		if err != nil {
			return nil, err
		}
		delta := varint.Unzigzag(u)
		t += delta
		out = append(out, t)
		for i := 2; i < n; i++ {
			tok, err := r.next()
			if err != nil {
				return nil, err
			}
			delta += varint.Unzigzag(tok)
			t += delta
			out = append(out, t)
		}
	}
	if !r.done() {
		return nil, errBlockTrail
	}
	return out, nil
}

func decodeValues(buf []byte, n int, enc byte, out []float64) ([]float64, error) {
	r := tokenReader{c: varint.Cursor{Buf: buf}}
	switch enc {
	case encInt:
		u, err := r.c.Uvarint()
		if err != nil {
			return nil, err
		}
		v := varint.Unzigzag(u)
		out = append(out, float64(v))
		if n > 1 {
			u, err = r.c.Uvarint()
			if err != nil {
				return nil, err
			}
			delta := varint.Unzigzag(u)
			v += delta
			out = append(out, float64(v))
			for i := 2; i < n; i++ {
				tok, err := r.next()
				if err != nil {
					return nil, err
				}
				delta += varint.Unzigzag(tok)
				v += delta
				out = append(out, float64(v))
			}
		}
	case encXOR:
		var prev uint64
		for i := 0; i < n; i++ {
			tok, err := r.next()
			if err != nil {
				return nil, err
			}
			prev ^= tok
			out = append(out, math.Float64frombits(prev))
		}
	}
	if !r.done() {
		return nil, errBlockTrail
	}
	return out, nil
}
