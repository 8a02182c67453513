// Package varint reads and writes the little-endian base-128 varints
// (encoding/binary's Uvarint) that the SLB1 batch frame and the tsdb block
// formats are built from: a bounds-checked cursor for headers, one value a
// call, a column kernel that decodes a whole run of values in one call, a
// check that accepts exactly what the kernel accepts without decoding, and
// an append for the small values most columns hold.
package varint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Uvarints' errors.
var (
	errBadVarint = errors.New("truncated or overflowing varint")
	errTrailing  = errors.New("trailing bytes after values")
)

// Zigzag maps signed to unsigned so that values near zero stay short.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Cursor is a bounds-checked reader over buf: every read either succeeds
// or returns an error, never panics, so a decoder built on it is safe to
// fuzz with arbitrary bytes.
type Cursor struct {
	Buf []byte
	Off int
}

// U8 reads one byte.
func (c *Cursor) U8() (byte, error) {
	if c.Off >= len(c.Buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.Buf[c.Off]
	c.Off++
	return b, nil
}

// Uvarint reads one varint, rejecting a truncated or overflowing one.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.Buf[c.Off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", c.Off)
	}
	c.Off += n
	return v, nil
}

// Bytes reads the next n bytes, aliasing buf.
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.Off+n > len(c.Buf) || c.Off+n < c.Off {
		return nil, io.ErrUnexpectedEOF
	}
	b := c.Buf[c.Off : c.Off+n]
	c.Off += n
	return b, nil
}

// Uvarints decodes len(dst) varints that together fill p exactly. It
// accepts exactly the runs that len(dst) calls of binary.Uvarint accept,
// non-minimal encodings included, and rejects any bytes left over.
//
// A one- or two-byte varint, which is nearly every dictionary index and
// delta, takes a path with no data-dependent branch: with b0 and b1 the
// next two bytes, the value ends within them exactly when b0&b1 < 0x80,
// and c = b0>>7 is then 1 for a two-byte varint and 0 for a one-byte one,
// so v = b0&0x7f | b1<<7&-c and the cursor advances 1+c. A three-byte one,
// which most milli-scaled timings are, is tested for next. binary.Uvarint
// reports overflow only at a tenth byte, so every string of one to three
// bytes it can end a value on is valid, and these paths accept nothing it
// would reject. Longer varints, and values within two bytes of the end of
// p, go through binary.Uvarint itself.
func Uvarints(dst []uint64, p []byte) error {
	off := 0
	for i := range dst {
		if off+1 < len(p) {
			b0, b1 := uint64(p[off]), uint64(p[off+1])
			if b0&b1 < 0x80 {
				c := b0 >> 7
				dst[i] = b0&0x7f | b1<<7&-c
				off += 1 + int(c)
				continue
			}
			if off+2 < len(p) && p[off+2] < 0x80 {
				dst[i] = b0&0x7f | (b1&0x7f)<<7 | uint64(p[off+2])<<14
				off += 3
				continue
			}
		}
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return errBadVarint
		}
		dst[i] = v
		off += n
	}
	if off != len(p) {
		return errTrailing
	}
	return nil
}

// Check reports whether Uvarints would accept p for n values, without
// decoding any of them.
//
// Every varint ends at its one byte below 0x80, its terminator, so p holds
// n values that fill it exactly when it has n terminators and ends on one,
// provided each value is one binary.Uvarint accepts. A value of at most
// nine bytes always is; it can fail only with nine or more continuation
// bytes before its terminator. Check counts terminators a word at a time
// (^w & 0x80…80, a popcount) and tracks the run of continuation bytes
// across words: the run into a word's lowest terminator, the run after its
// highest. Only when a run reaches nine, or the count is off, does it walk
// p one value at a time with binary.Uvarint, as Uvarints does, for the
// exact verdict.
func Check(p []byte, n int) bool {
	if len(p) == 0 || p[len(p)-1] >= 0x80 {
		return len(p) == 0 && n == 0
	}
	const hi = 0x8080808080808080
	terms, run, longest := 0, 0, 0
	i := 0
	for ; i+8 <= len(p); i += 8 {
		t := ^binary.LittleEndian.Uint64(p[i:]) & hi
		if t == 0 {
			run += 8
			longest = max(longest, run)
			continue
		}
		terms += bits.OnesCount64(t)
		longest = max(longest, run+bits.TrailingZeros64(t)>>3)
		run = bits.LeadingZeros64(t) >> 3
	}
	for ; i < len(p); i++ {
		if p[i] >= 0x80 {
			run++
			continue
		}
		terms++
		longest = max(longest, run)
		run = 0
	}
	if terms != n || longest >= 9 {
		return walk(p, n)
	}
	return true
}

// walk is Uvarints' verdict on p for n values, reached by binary.Uvarint a
// value at a time with nothing stored.
func walk(p []byte, n int) bool {
	off := 0
	for ; n > 0; n-- {
		_, k := binary.Uvarint(p[off:])
		if k <= 0 {
			return false
		}
		off += k
	}
	return off == len(p)
}

// AppendUvarint is binary.AppendUvarint with a path for values below 2^14
// (a dictionary index, most deltas) that has no data-dependent branch: it
// appends both bytes of the two-byte form, c = 1 when x needs the second,
// sets the first byte's continuation bit to c and keeps 1+c bytes.
func AppendUvarint(b []byte, x uint64) []byte {
	if x >= 1<<14 {
		return binary.AppendUvarint(b, x)
	}
	c := (x>>7 + 127) >> 7
	b = append(b, byte(x)|byte(c<<7), byte(x>>7))
	return b[:len(b)-1+int(c)]
}
