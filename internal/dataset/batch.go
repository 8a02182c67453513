package dataset

// Columnar batch wire encoding for extension records.
//
// The per-record CSV wire format spends most of its bytes (and the
// collector's ingest CPU) repeating strings and re-parsing decimal text a
// million times over. A batch frame transposes a record slice into
// struct-of-arrays columns and encodes each column with the scheme that fits
// it: dictionary indices for the heavily repeated strings (user, city,
// country, ISP, domain), zigzag-delta varints for monotone-ish integers
// (ASN, Unix timestamp, rank), one bit per record for the four booleans, a
// byte per record for the weather condition, and milli-scaled zigzag-delta
// varints for the two timing columns.
//
// Frame layout (all integers little-endian; diagram in DESIGN.md §14):
//
//	frame := "SLB1" | u32 bodyLen | body | u32 crc32c(body)
//	body  := u8 version(=1) | uvarint nRecords | u8 nCols(=15) | col*
//	col   := u8 colID | u8 enc | uvarint payloadLen | payload
//
// The body is self-describing: every column carries its ID and encoding, so
// a decoder can skip or reorder columns, and the CRC over the body makes
// torn or corrupt frames detectable before any value is trusted.
//
// Equivalence contract: UnmarshalBatch(MarshalBatch(recs)) yields exactly
// the records the CSV wire path would deliver — timestamps truncated to
// whole seconds in UTC and the timing floats quantised to the same values
// strconv.FormatFloat(v, 'f', 3, 64) → ParseFloat round-trips to. That is
// what lets the collector frame the rows its CSV wire receives without
// changing any value a MarshalExtensionRow row carries.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"

	"starlinkview/internal/extension"
)

// Frame framing constants.
const (
	// BatchMagic opens every columnar frame.
	BatchMagic = "SLB1"
	// BatchVersion is the body format version this package writes.
	BatchVersion = 1
	// MaxBatchBody bounds a frame's body length; ReadBatch rejects frames
	// claiming more, so a corrupt length prefix cannot drive a giant
	// allocation.
	MaxBatchBody = 64 << 20
)

// Column IDs, in the order of the CSV schema (ExtensionHeader).
const (
	colUserID = iota
	colCity
	colCountry
	colISP
	colASN
	colTimestamp
	colDomain
	colRank
	colPopular
	colPTT
	colPLT
	colWeather
	colHasWeather
	colBenchmark
	colGoogle
	numBatchCols
)

// Column encodings.
const (
	encDict     byte = 1 // uvarint dictSize | dictSize×(uvarint len | bytes) | nRecords×uvarint index
	encDelta    byte = 2 // nRecords×varint(zigzag(v[i]-v[i-1])), v[-1]=0
	encBits     byte = 3 // ceil(nRecords/8) bytes, LSB-first
	encF64Milli byte = 4 // nRecords×varint(zigzag(m[i]-m[i-1])), m = value×1000 (exact)
	encF64Raw   byte = 5 // nRecords×8 bytes, IEEE-754 bits of the quantised value
	encU8       byte = 6 // nRecords×1 byte
)

var batchCRC = crc32.MakeTable(crc32.Castagnoli)

// MarshalBatch encodes records as one self-contained columnar frame: Encode
// on a fresh BatchEncoder, for callers with no encoder to reuse.
func MarshalBatch(records []extension.Record) []byte {
	return new(BatchEncoder).Encode(records)
}

func appendColHeader(dst []byte, id byte, enc byte, payloadLen int) []byte {
	dst = append(dst, id, enc)
	return binary.AppendUvarint(dst, uint64(payloadLen))
}

// quantizeMilli reproduces the CSV wire's float quantisation: the value a
// reader gets back after FormatFloat(v, 'f', 3, 64) → ParseFloat. It returns
// the milli-scaled integer when that quantised value is exactly
// float64(milli)/1000 (true whenever |milli| < 2^53), so the column can
// travel as delta varints; ok=false falls back to raw float bits of q.
//
// The common case takes a pure integer fast path. Writing v = mant·2^(-s)
// (from the float's bits), the exact value of v·1000 is mant·1000 / 2^s, so
// rounding it to an integer — ties to even, the same unbiased rounding
// FormatFloat applies to the exact decimal expansion — needs one shift and
// a remainder compare, no decimal conversion. The quantised value is then
// float64(m)/1000 exactly: IEEE division correctly rounds the exact
// rational m/1000, which is also what ParseFloat returns for the formatted
// string. Values outside |v·1000| < 2^53 (and ±Inf/NaN) keep the strconv
// path; they are vanishingly rare on measurement traffic.
func quantizeMilli(v float64) (milli int64, q float64, ok bool) {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	if exp != 0x7ff { // finite
		mant := bits & (1<<52 - 1)
		if exp != 0 {
			mant |= 1 << 52
		} else {
			exp = 1 // subnormal: same scale, no implicit bit
		}
		if s := 1075 - exp; s > 0 {
			n := mant * 1000 // mant < 2^53, so n < 2^63: exact
			var m uint64
			if s >= 64 {
				// |v·1000| < 2^63/2^64 < 1/2: rounds to zero, never a tie.
				m = 0
			} else {
				m = n >> uint(s)
				rem := n - m<<uint(s)
				half := uint64(1) << uint(s-1)
				if rem > half || (rem == half && m&1 == 1) {
					m++
				}
			}
			if m <= 1<<53 {
				mi := int64(m)
				qv := float64(mi) / 1000
				if bits>>63 != 0 {
					// Negate the value too, not just the integer: a negative
					// that rounds to zero must quantise to -0.0, exactly as
					// ParseFloat("-0.000") does.
					mi, qv = -mi, -qv
				}
				return mi, qv, true
			}
		}
	}
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], v, 'f', 3, 64)
	q, _ = strconv.ParseFloat(string(s), 64)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, q, false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
	}
	var scaled uint64
	for ; i < len(s); i++ {
		if s[i] == '.' {
			continue
		}
		d := uint64(s[i] - '0')
		if scaled > (1<<53-10)/10 {
			return 0, q, false
		}
		scaled = scaled*10 + d
	}
	m := int64(scaled)
	if neg {
		m = -m
	}
	if float64(m)/1000 != q {
		return 0, q, false
	}
	return m, q, true
}

// --- decoding -----------------------------------------------------------

// UnmarshalBatch decodes exactly one frame occupying the whole buffer into a
// record slice: ParseBatchView, then every row materialised. Torn, truncated,
// corrupt, or trailing-garbage input returns an error; no input panics, and
// nothing past a failed CRC is ever interpreted.
//
// It is a shim for the offline consumers that genuinely want records
// (cluster compaction, collectord -wal-dump, ReadBatch) and for
// benchmark/other_layers.go, which times it under
// dataset.unmarshal_ns_per_record; the ingest, replay and forward paths all
// read the view directly.
func UnmarshalBatch(frame []byte) ([]extension.Record, error) {
	v, err := ParseBatchView(frame)
	if err != nil {
		return nil, err
	}
	return v.AppendRecords(nil), nil
}

// checkBatchFrame performs the frame-level validation (magic, length, CRC)
// for BatchView.parse, returning the verified body.
func checkBatchFrame(frame []byte) ([]byte, error) {
	if len(frame) < len(BatchMagic)+4+4 {
		return nil, fmt.Errorf("dataset: batch frame truncated (%d bytes)", len(frame))
	}
	if string(frame[:4]) != BatchMagic {
		return nil, fmt.Errorf("dataset: bad batch magic %q", frame[:4])
	}
	bodyLen := binary.LittleEndian.Uint32(frame[4:8])
	if bodyLen > MaxBatchBody {
		return nil, fmt.Errorf("dataset: batch body %d exceeds limit", bodyLen)
	}
	if uint64(len(frame)) != 8+uint64(bodyLen)+4 {
		return nil, fmt.Errorf("dataset: batch frame length %d does not match body length %d", len(frame), bodyLen)
	}
	body := frame[8 : 8+bodyLen]
	wantCRC := binary.LittleEndian.Uint32(frame[8+bodyLen:])
	if got := crc32.Checksum(body, batchCRC); got != wantCRC {
		return nil, fmt.Errorf("dataset: batch CRC mismatch (got %08x want %08x)", got, wantCRC)
	}
	return body, nil
}

// ReadBatch reads the next frame from a stream of concatenated frames (the
// /ingest/batch request body). It returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF on a frame cut short.
func ReadBatch(r io.Reader) ([]extension.Record, error) {
	frame, err := readBatchFrame(r, nil)
	if err != nil {
		return nil, err
	}
	return UnmarshalBatch(frame)
}

// readBatchFrame reads the next frame's raw bytes without decoding the
// columns; the CRC and column checks happen when the frame is parsed. The
// frame lands in buf's backing array when it fits, so steady-state readers
// (the view pool) read a frame as its header and one body read, without
// allocating. Otherwise the claimed length is trusted only as far as body
// bytes arrive: the buffer grows to the claim or 64 KiB, whichever is less,
// then at most doubles each time it fills, so a header claiming
// MaxBatchBody with nothing behind it costs 64 KiB, not the claim.
func readBatchFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 8 {
		buf = make([]byte, 0, 8)
	}
	hdr := buf[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dataset: batch header: %w", err)
	}
	if string(hdr[:4]) != BatchMagic {
		return nil, fmt.Errorf("dataset: bad batch magic %q", hdr[:4])
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[4:8])
	if bodyLen > MaxBatchBody {
		return nil, fmt.Errorf("dataset: batch body %d exceeds limit", bodyLen)
	}
	need := 8 + int(bodyLen) + 4
	buf = hdr
	for len(buf) < need {
		if len(buf) == cap(buf) {
			nb := make([]byte, len(buf), min(need, max(2*cap(buf), 64<<10)))
			copy(nb, buf)
			buf = nb
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), need)])
		buf = buf[:len(buf)+n]
		if err != nil && len(buf) < need {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("dataset: batch body: %w", err)
		}
	}
	return buf, nil
}
