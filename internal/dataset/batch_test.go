package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/weather"
)

// randBatchRecord draws a record exercising every column type: dictionary
// strings with heavy repetition and non-ASCII city names, negative and large
// integers, sub-second timestamps (truncated on the wire), special floats,
// and all weather conditions.
func randBatchRecord(r *rand.Rand) extension.Record {
	cities := []string{"London", "Zürich", "São Paulo", "北京", "Kraków", "", "Reykjavík"}
	isps := []string{"starlink", "terrestrial", "dsl"}
	domains := []string{"example.com", "検索.jp", "a.b.c", "x"}
	floats := []float64{0, 1.5, -3.25, 0.0625, 123456.789, 1e15, -1e20, math.Inf(1), math.Inf(-1)}
	return extension.Record{
		UserID:    strings.Repeat("u", r.Intn(4)) + string(rune('a'+r.Intn(26))),
		City:      cities[r.Intn(len(cities))],
		Country:   []string{"UK", "CH", "BR", "CN", "PL", ""}[r.Intn(6)],
		ISP:       isps[r.Intn(len(isps))],
		ASN:       r.Intn(1<<20) - 1<<10,
		At:        time.Unix(int64(r.Intn(1<<31)), int64(r.Intn(1e9))),
		Domain:    domains[r.Intn(len(domains))],
		Rank:      r.Intn(2e6) - 100,
		Popular:   r.Intn(2) == 0,
		PTTMs:     floats[r.Intn(len(floats))] * (1 + r.Float64()),
		PLTMs:     floats[r.Intn(len(floats))],
		Condition: weather.Conditions()[r.Intn(len(weather.Conditions()))],
		HasWx:     r.Intn(2) == 0,
		Benchmark: r.Intn(4) == 0,
		Google:    r.Intn(4) == 0,
	}
}

// csvWireRoundTrip pushes records through the per-record CSV wire encoding —
// the reference the batch codec must be equivalent to.
func csvWireRoundTrip(t *testing.T, recs []extension.Record) []extension.Record {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, r := range recs {
		if err := cw.Write(MarshalExtensionRow(r)); err != nil {
			t.Fatalf("csv write: %v", err)
		}
	}
	cw.Flush()
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = len(extensionHeader)
	out := make([]extension.Record, 0, len(recs))
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("csv read: %v", err)
		}
		rec, err := UnmarshalExtensionRow(row)
		if err != nil {
			t.Fatalf("csv unmarshal: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

func recordsEqual(a, b extension.Record) bool {
	return a.UserID == b.UserID && a.City == b.City && a.Country == b.Country &&
		a.ISP == b.ISP && a.ASN == b.ASN && a.At.Equal(b.At) && a.Domain == b.Domain &&
		a.Rank == b.Rank && a.Popular == b.Popular &&
		math.Float64bits(a.PTTMs) == math.Float64bits(b.PTTMs) &&
		math.Float64bits(a.PLTMs) == math.Float64bits(b.PLTMs) &&
		a.Condition == b.Condition && a.HasWx == b.HasWx &&
		a.Benchmark == b.Benchmark && a.Google == b.Google
}

// TestQuantizeMilliMatchesStrconv pins the integer fast path to the strconv
// reference it replaced: for any float, the quantised value must be exactly
// ParseFloat(FormatFloat(v, 'f', 3, 64)) — including signed zero and
// decimal ties, where FormatFloat rounds to even — and an ok result must
// satisfy the milli-encoding invariant float64(m)/1000 == q.
func TestQuantizeMilliMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		m, q, ok := quantizeMilli(v)
		want, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
		if math.Float64bits(q) != math.Float64bits(want) {
			t.Fatalf("quantizeMilli(%v) = q %v (bits %#x), strconv gives %v (bits %#x)",
				v, q, math.Float64bits(q), want, math.Float64bits(want))
		}
		if ok && float64(m)/1000 != q {
			t.Fatalf("quantizeMilli(%v): ok with m=%d but float64(m)/1000 = %v != q %v",
				v, m, float64(m)/1000, q)
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, -3.25, 123.456, 123456.789,
		0.0625, -0.0625, 0.1875, -0.1875, // exact decimal ties: x·1000 = ...62.5, round to even
		0.0005, -0.0005, 0.0004999999999, 1.0005, 2.0005,
		5e-324, -5e-324, 1e-300, // subnormal and tiny: round to ±0.000
		9007199254740.991, 9007199254740.992, 9007199254740.993, // |v·1000| ≈ 2^53 boundary
		-9007199254740.992, 1e13, 1e15, -1e20, 1e300,
		math.Inf(1), math.Inf(-1),
	} {
		check(v)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		// Uniform bit patterns stress every exponent range, specials included.
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) {
			continue // NaN formats as "NaN"; the wire never carries it
		}
		check(v)
		// And realistic measurement magnitudes, where the fast path must hit.
		check((r.Float64() - 0.5) * 1e6)
	}
}

// TestBatchRoundTripMatchesCSVWire is the equivalence property: for any
// batch, UnmarshalBatch(MarshalBatch(recs)) yields exactly the records the
// CSV wire would deliver — same timestamp truncation, same float
// quantisation — so the two ingest paths aggregate identically.
func TestBatchRoundTripMatchesCSVWire(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial, n := range []int{0, 1, 2, 7, 64, 513, 5000} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		frame := MarshalBatch(recs)
		got, err := UnmarshalBatch(frame)
		if err != nil {
			t.Fatalf("trial %d (n=%d): unmarshal: %v", trial, n, err)
		}
		want := csvWireRoundTrip(t, recs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d records, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("trial %d record %d:\n batch %+v\n csv   %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestBatchRoundTripExactStrings pins that the batch codec itself is
// lossless on strings CSV cannot carry verbatim (carriage returns, NULs,
// invalid UTF-8).
func TestBatchRoundTripExactStrings(t *testing.T) {
	recs := []extension.Record{
		{UserID: "a\r\nb", City: "x\x00y", Country: string([]byte{0xff, 0xfe}), ISP: "i,\"j\"",
			Domain: "d\re", At: time.Unix(100, 0)},
		{UserID: "a\r\nb", City: "x\x00y", Country: "c", ISP: "k",
			Domain: "d\re", At: time.Unix(101, 0)},
	}
	got, err := UnmarshalBatch(MarshalBatch(recs))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for i := range recs {
		want := recs[i]
		want.At = want.At.UTC()
		if !recordsEqual(got[i], want) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want)
		}
	}
}

// TestBatchStreamFraming checks ReadBatch over concatenated frames and its
// torn-frame behaviour.
func TestBatchStreamFraming(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var wire []byte
	var all [][]extension.Record
	for _, n := range []int{3, 0, 17} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		all = append(all, recs)
		wire = append(wire, MarshalBatch(recs)...)
	}
	rd := bytes.NewReader(wire)
	for fi, want := range all {
		got, err := ReadBatch(rd)
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d records, want %d", fi, len(got), len(want))
		}
	}
	if _, err := ReadBatch(rd); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
	// A frame cut anywhere must error, never hang or panic.
	for _, cut := range []int{1, 4, 8, len(wire) / 2, len(wire) - 1} {
		rd := bytes.NewReader(wire[:cut])
		for {
			_, err := ReadBatch(rd)
			if err != nil {
				if err == io.EOF && cut >= 8 {
					// Clean EOF is fine only if earlier full frames fit.
				}
				break
			}
		}
	}
}

// totalAlloc is the bytes f allocates, from the runtime's running total.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// countingReader counts the Read calls that reach r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadFrameAllocatesAsBytesArrive sends headers that claim the largest
// body the format allows with little or nothing behind them. Reading one
// must fail as a torn frame having allocated for what arrived, not for the
// claim. A frame that fits the buffer it is read into still costs one body
// read and no allocation.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32([]byte(BatchMagic), MaxBatchBody)
	var pool ViewPool
	for _, sent := range []int{0, 1, 100 << 10} {
		req := append(hdr[:len(hdr):len(hdr)], make([]byte, sent)...)
		for name, read := range map[string]func() error{
			"ReadBatch": func() error {
				_, err := ReadBatch(bytes.NewReader(req))
				return err
			},
			"ViewPool.Read": func() error {
				_, err := pool.Read(bytes.NewReader(req))
				return err
			},
		} {
			var err error
			if b := totalAlloc(func() { err = read() }); b >= 1<<20 {
				t.Errorf("%s, header and %d body bytes: allocated %d B", name, sent, b)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, header and %d body bytes: %v, want a torn frame", name, sent, err)
			}
		}
	}

	recs := make([]extension.Record, 512)
	r := rand.New(rand.NewSource(39))
	for i := range recs {
		recs[i] = randBatchRecord(r)
	}
	frame := MarshalBatch(recs)
	buf := make([]byte, 0, len(frame))
	rd := bytes.NewReader(frame)
	cr := &countingReader{r: rd}
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(frame)
		cr.reads = 0
		got, err := readBatchFrame(cr, buf)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("frame read back as %d bytes, %v", len(got), err)
		}
	})
	if allocs != 0 || cr.reads != 2 {
		t.Fatalf("a frame that fits its buffer: %.1f allocations, %d reads; want none and header plus body", allocs, cr.reads)
	}
}

// TestBatchRejectsCorruption flips bytes across a valid frame: every flip
// must either fail the CRC (or a structural check) or — in the astronomically
// unlikely CRC-collision case — still decode without panicking. No flip may
// decode to a different record count silently... which the CRC rules out.
// With the CRC re-patched the flip reaches the column validators instead:
// they may accept or reject, but never panic, and whatever they accept is a
// batch the codec can carry again.
func TestBatchRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([]extension.Record, 50)
	for i := range recs {
		recs[i] = randBatchRecord(r)
	}
	frame := MarshalBatch(recs)
	bodyEnd := len(frame) - 4
	for off := 0; off < len(frame); off++ {
		mut := append([]byte(nil), frame...)
		mut[off] ^= 0x41
		if _, err := UnmarshalBatch(mut); err == nil {
			t.Fatalf("byte flip at offset %d decoded without error", off)
		}
		if off < 8 || off >= bodyEnd {
			continue
		}
		binary.LittleEndian.PutUint32(mut[bodyEnd:], crc32.Checksum(mut[8:bodyEnd], batchCRC))
		got, err := UnmarshalBatch(mut)
		if err != nil {
			continue
		}
		again, err := UnmarshalBatch(MarshalBatch(got))
		if err != nil || len(again) != len(got) {
			t.Fatalf("offset %d: accepted batch does not re-encode: %d → %d records, %v", off, len(got), len(again), err)
		}
	}
	// Truncations at every length.
	for l := 0; l < len(frame); l++ {
		if _, err := UnmarshalBatch(frame[:l]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", l)
		}
	}
}

func FuzzUnmarshalBatch(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 5, 100} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		f.Add(MarshalBatch(recs))
	}
	f.Add([]byte("SLB1"))
	f.Add([]byte("SLB1\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := UnmarshalBatch(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode again cleanly —
		// the codec never produces records it cannot carry.
		reencoded := MarshalBatch(recs)
		again, err := UnmarshalBatch(reencoded)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-encode changed record count: %d != %d", len(again), len(recs))
		}
		for i := range recs {
			if recs[i].UserID != again[i].UserID || !recs[i].At.Equal(again[i].At) ||
				recs[i].Condition != again[i].Condition {
				t.Fatalf("re-encode changed record %d", i)
			}
		}
		// And the view-side front door writes the same bytes for it.
		v, err := ParseBatchView(data)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int32, v.Len())
		for i := range all {
			all[i] = int32(i)
		}
		if !bytes.Equal(new(BatchEncoder).EncodeRows(v, all), reencoded) {
			t.Fatal("EncodeRows over all rows differs from Encode over the decoded records")
		}
	})
}
