package varint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// decodeAll decodes p with binary.Uvarint, one value a call, until it is
// consumed, appending the values to vals; ok=false when a varint is
// truncated or overflows.
func decodeAll(vals []uint64, p []byte) (_ []uint64, ok bool) {
	for off := 0; off < len(p); {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return vals, false
		}
		vals = append(vals, v)
		off += n
	}
	return vals, true
}

// checkUvarints holds Uvarints to binary.Uvarint on p for every value count
// up to len(p)+1: the count binary.Uvarint consumes p with must decode to
// its values, and every other count must fail. It returns what differs, or
// "" (it runs 2^24 times, so it leaves t.Helper to its caller).
func checkUvarints(p []byte, dst []uint64) string {
	var buf [16]uint64
	want, ok := decodeAll(buf[:0], p)
	for k := 0; k <= len(p)+1; k++ {
		err := Uvarints(dst[:k], p)
		if !ok || k != len(want) {
			if err == nil {
				return fmt.Sprintf("% x: %d values accepted; binary.Uvarint decodes %v (ok=%v)", p, k, want, ok)
			}
			continue
		}
		if err != nil {
			return fmt.Sprintf("% x: %d values rejected (%v); binary.Uvarint decodes %v", p, k, err, want)
		}
		for i, v := range want {
			if dst[i] != v {
				return fmt.Sprintf("% x: value %d is %d, binary.Uvarint reads %d", p, i, dst[i], v)
			}
		}
	}
	return ""
}

// TestUvarintsMatchesBinary checks the column kernel against binary.Uvarint
// on every string of one to three bytes, and on every truncation of long,
// non-minimal and overflowing encodings.
func TestUvarintsMatchesBinary(t *testing.T) {
	dst := make([]uint64, 16)
	p := make([]byte, 3)
	for x := 0; x < 1<<24; x++ {
		p[0], p[1], p[2] = byte(x), byte(x>>8), byte(x>>16)
		msg := checkUvarints(p, dst)
		if msg == "" && x < 1<<16 {
			msg = checkUvarints(p[:2], dst)
		}
		if msg == "" && x < 1<<8 {
			msg = checkUvarints(p[:1], dst)
		}
		if msg != "" {
			t.Fatal(msg)
		}
	}

	var long [][]byte
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 35, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		long = append(long, binary.AppendUvarint(nil, v))
		// The same value padded with continuation bytes to ten bytes.
		pad := binary.AppendUvarint(nil, v)
		if len(pad) < 10 {
			for i := range pad {
				pad[i] |= 0x80
			}
			for len(pad) < 9 {
				pad = append(pad, 0x80)
			}
			pad = append(pad, 0)
		}
		long = append(long, pad)
	}
	long = append(long,
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // overflows at the tenth byte
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, // eleven bytes
	)
	for _, b := range long {
		for _, tail := range [][]byte{nil, {0x05}, {0x85, 0x01}} {
			// The long varint first, then after a one-byte value.
			for _, run := range [][]byte{append(b[:len(b):len(b)], tail...), append(append([]byte{0x01}, b...), tail...)} {
				for l := 0; l <= len(run); l++ {
					if msg := checkUvarints(run[:l], dst); msg != "" {
						t.Fatal(msg)
					}
				}
			}
		}
	}
}

// checkCheck holds Check to Uvarints on p for every value count up to
// len(p)+1, returning what differs or "".
func checkCheck(p []byte, dst []uint64) string {
	for k := 0; k <= len(p)+1; k++ {
		if got, want := Check(p, k), Uvarints(dst[:k], p) == nil; got != want {
			return fmt.Sprintf("% x: Check for %d values says %v, Uvarints %v", p, k, got, want)
		}
	}
	return ""
}

// TestCheckMatchesUvarints holds Check to Uvarints on every string of one
// to three bytes, and on runs of 8 to 11 continuation bytes, ended by
// terminators that do and do not overflow or cut off at the end, at every
// alignment in a 24-byte payload of one-byte values: the runs that cross a
// word boundary and the ones that reach nine.
func TestCheckMatchesUvarints(t *testing.T) {
	dst := make([]uint64, 32)
	p := make([]byte, 3)
	for x := 0; x < 1<<24; x++ {
		p[0], p[1], p[2] = byte(x), byte(x>>8), byte(x>>16)
		msg := checkCheck(p, dst)
		if msg == "" && x < 1<<16 {
			msg = checkCheck(p[:2], dst)
		}
		if msg == "" && x < 1<<8 {
			msg = checkCheck(p[:1], dst)
		}
		if msg != "" {
			t.Fatal(msg)
		}
	}
	if msg := checkCheck(nil, dst); msg != "" {
		t.Fatal(msg)
	}

	const size = 24
	for _, l := range []int{8, 9, 10, 11} {
		for _, cont := range []byte{0x80, 0xff} {
			for _, term := range []byte{0x00, 0x01, 0x02, 0x7f, 0x80} { // 0x80: no terminator
				for at := 0; at+l <= size; at++ {
					run := bytes.Repeat([]byte{0x01}, size)
					for i := at; i < at+l; i++ {
						run[i] = cont
					}
					if at+l < size {
						run[at+l] = term
					}
					for _, q := range [][]byte{run, run[:at+l], run[:min(at+l+1, size)]} {
						if msg := checkCheck(q, dst); msg != "" {
							t.Fatal(msg)
						}
					}
				}
			}
		}
	}
}

// FuzzCheckMatchesUvarints holds Check to Uvarints on fuzz bytes, for a
// value count the fuzzer also chooses, up to one more than len(p).
func FuzzCheckMatchesUvarints(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x01}, uint16(2))
	f.Add(bytes.Repeat([]byte{0x80}, 9), uint16(1))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01), uint16(1))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02), uint16(1))
	f.Add(append([]byte{0x05, 0x05, 0x05}, append(bytes.Repeat([]byte{0x80}, 10), 0x00)...), uint16(4))
	f.Fuzz(func(t *testing.T, p []byte, n uint16) {
		k := int(n) % (len(p) + 2)
		if got, want := Check(p, k), Uvarints(make([]uint64, k), p) == nil; got != want {
			t.Fatalf("% x: Check for %d values says %v, Uvarints %v", p, k, got, want)
		}
	})
}

// TestAppendUvarintMatchesBinary checks AppendUvarint against
// binary.AppendUvarint on every value below 2^16 and at each length's
// edges, appending after existing bytes.
func TestAppendUvarintMatchesBinary(t *testing.T) {
	vals := []uint64{math.MaxUint64}
	for x := uint64(0); x < 1<<16; x++ {
		vals = append(vals, x)
	}
	for b := 16; b < 64; b += 7 {
		vals = append(vals, 1<<b-1, 1<<b, 1<<b+1)
	}
	for _, x := range vals {
		if got, want := AppendUvarint([]byte{9}, x), binary.AppendUvarint([]byte{9}, x); !bytes.Equal(got, want) {
			t.Fatalf("AppendUvarint(%d) = % x, want % x", x, got, want)
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Fatalf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	if Zigzag(-1) != 1 || Zigzag(1) != 2 {
		t.Fatal("Zigzag does not interleave signs")
	}
}

func TestCursorBounds(t *testing.T) {
	c := &Cursor{Buf: []byte{7, 0x80}}
	if b, err := c.U8(); b != 7 || err != nil {
		t.Fatalf("U8 = %d, %v", b, err)
	}
	if _, err := c.Uvarint(); err == nil {
		t.Fatal("truncated varint accepted")
	}
	if _, err := c.Bytes(2); err == nil {
		t.Fatal("read past the end")
	}
	if _, err := c.Bytes(math.MaxInt); err == nil {
		t.Fatal("overflowing length accepted")
	}
	if b, err := c.Bytes(1); err != nil || b[0] != 0x80 {
		t.Fatalf("Bytes(1) = %x, %v", b, err)
	}
	if _, err := c.U8(); err == nil {
		t.Fatal("U8 past the end")
	}
}
