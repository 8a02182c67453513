package dataset

// Reference codecs for the column kernels. refParse decodes a frame body
// one varint at a time, and refEncoder builds each dictionary through a Go
// map with one getter closure per column: the parse and the encoder as they
// stood before either worked a column at a time. FuzzParseBody and
// TestEncodeMatchesReference hold the code under test to them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/weather"
)

// refCursor is a bounds-checked reader over a frame body, one value a call.
type refCursor struct {
	buf []byte
	off int
}

func (c *refCursor) u8() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

func (c *refCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *refCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.buf) || c.off+n < c.off {
		return nil, io.ErrUnexpectedEOF
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

func refUnzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
func refZigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }

// refDict is a decoded dictionary column: its entries and, per row, the
// index of the first entry with the row's bytes.
type refDict struct {
	entries []string
	idx     []uint32
}

// refView is a decoded frame body.
type refView struct {
	n                                     int
	userID, city, country, isp, domain    refDict
	asn, ts, rank                         []int64
	ptt, plt                              []float64
	popular, hasWx, benchmark, google, wx []byte
}

func (r *refView) record(i int) extension.Record {
	bit := func(p []byte) bool { return p[i/8]&(1<<(i%8)) != 0 }
	at := func(d *refDict) string { return d.entries[d.idx[i]] }
	return extension.Record{
		UserID: at(&r.userID), City: at(&r.city), Country: at(&r.country), ISP: at(&r.isp),
		ASN: int(r.asn[i]), At: time.Unix(r.ts[i], 0).UTC(), Domain: at(&r.domain), Rank: int(r.rank[i]),
		Popular: bit(r.popular), PTTMs: r.ptt[i], PLTMs: r.plt[i],
		Condition: weather.Condition(r.wx[i]), HasWx: bit(r.hasWx),
		Benchmark: bit(r.benchmark), Google: bit(r.google),
	}
}

// refParse decodes a frame body with every check the wire format makes.
func refParse(body []byte) (*refView, error) {
	r := &refView{}
	c := &refCursor{buf: body}
	ver, err := c.u8()
	if err != nil {
		return nil, err
	}
	if ver != BatchVersion {
		return nil, errors.New("version")
	}
	n64, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n64 > uint64(len(body)) {
		return nil, errors.New("record count exceeds body")
	}
	r.n = int(n64)
	nCols, err := c.u8()
	if err != nil {
		return nil, err
	}
	if nCols != numBatchCols {
		return nil, errors.New("column count")
	}
	seen := [numBatchCols]bool{}
	for ci := 0; ci < numBatchCols; ci++ {
		id, err := c.u8()
		if err != nil {
			return nil, err
		}
		enc, err := c.u8()
		if err != nil {
			return nil, err
		}
		plen, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if plen > uint64(len(body)) {
			return nil, errors.New("payload exceeds body")
		}
		p, err := c.bytes(int(plen))
		if err != nil {
			return nil, err
		}
		if int(id) >= numBatchCols || seen[id] {
			return nil, errors.New("column id")
		}
		seen[id] = true
		if err := r.column(id, enc, p); err != nil {
			return nil, err
		}
	}
	if c.off != len(body) {
		return nil, errors.New("trailing bytes")
	}
	return r, nil
}

func (r *refView) column(id, enc byte, p []byte) error {
	want := [numBatchCols]byte{ // 0: either float encoding
		colUserID: encDict, colCity: encDict, colCountry: encDict, colISP: encDict, colDomain: encDict,
		colASN: encDelta, colTimestamp: encDelta, colRank: encDelta,
		colPopular: encBits, colHasWeather: encBits, colBenchmark: encBits, colGoogle: encBits,
		colWeather: encU8,
	}
	if want[id] != 0 && enc != want[id] {
		return errors.New("encoding")
	}
	var err error
	switch id {
	case colUserID:
		r.userID, err = refParseDict(r.n, p)
	case colCity:
		r.city, err = refParseDict(r.n, p)
	case colCountry:
		r.country, err = refParseDict(r.n, p)
	case colISP:
		r.isp, err = refParseDict(r.n, p)
	case colDomain:
		r.domain, err = refParseDict(r.n, p)
	case colASN:
		r.asn, err = refParseDelta(r.n, p)
	case colTimestamp:
		r.ts, err = refParseDelta(r.n, p)
	case colRank:
		r.rank, err = refParseDelta(r.n, p)
	case colPTT:
		r.ptt, err = refParseFloat(r.n, enc, p)
	case colPLT:
		r.plt, err = refParseFloat(r.n, enc, p)
	case colPopular, colHasWeather, colBenchmark, colGoogle:
		if len(p) != (r.n+7)/8 {
			return errors.New("bitset length")
		}
		switch id {
		case colPopular:
			r.popular = p
		case colHasWeather:
			r.hasWx = p
		case colBenchmark:
			r.benchmark = p
		default:
			r.google = p
		}
	case colWeather:
		if len(p) != r.n {
			return errors.New("weather length")
		}
		for _, b := range p {
			if int(b) >= len(weather.Conditions()) {
				return errors.New("weather condition")
			}
		}
		r.wx = p
	}
	return err
}

func refParseDict(n int, p []byte) (refDict, error) {
	var d refDict
	c := &refCursor{buf: p}
	nEntries, err := c.uvarint()
	if err != nil {
		return d, err
	}
	if nEntries > uint64(len(p)) {
		return d, errors.New("dictionary size")
	}
	first := make(map[string]uint32)
	canon := make([]uint32, nEntries)
	for k := range canon {
		elen, err := c.uvarint()
		if err != nil {
			return d, err
		}
		if elen > uint64(len(p)) {
			return d, errors.New("entry length")
		}
		b, err := c.bytes(int(elen))
		if err != nil {
			return d, err
		}
		s := string(b)
		if _, ok := first[s]; !ok {
			first[s] = uint32(k)
		}
		canon[k] = first[s]
		d.entries = append(d.entries, s)
	}
	for i := 0; i < n; i++ {
		ix, err := c.uvarint()
		if err != nil {
			return d, err
		}
		if ix >= nEntries {
			return d, errors.New("index out of range")
		}
		d.idx = append(d.idx, canon[ix])
	}
	if c.off != len(p) {
		return d, errors.New("trailing bytes")
	}
	return d, nil
}

func refParseDelta(n int, p []byte) ([]int64, error) {
	c := &refCursor{buf: p}
	out := make([]int64, n)
	prev := int64(0)
	for i := range out {
		u, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		prev += refUnzigzag(u)
		out[i] = prev
	}
	if c.off != len(p) {
		return nil, errors.New("trailing bytes")
	}
	return out, nil
}

func refParseFloat(n int, enc byte, p []byte) ([]float64, error) {
	out := make([]float64, n)
	switch enc {
	case encF64Milli:
		m, err := refParseDelta(n, p)
		if err != nil {
			return nil, err
		}
		for i, x := range m {
			out[i] = float64(x) / 1000
		}
	case encF64Raw:
		if len(p) != 8*n {
			return nil, errors.New("raw float length")
		}
		for i := range out {
			_, out[i], _ = quantizeMilli(math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
		}
	default:
		return nil, errors.New("float encoding")
	}
	return out, nil
}

// refEncoder is the encoder with a map-built dictionary and one getter
// closure per column.
type refEncoder struct {
	buf, idxBuf, payload []byte
	index                map[string]uint64
	entries              []string
	millis               []int64
	quant                []float64
}

type refColumns struct {
	n                                 int
	userID, city, country, isp, dom   func(i int) string
	asn, unix, rank                   func(i int) int64
	ptt, plt                          func(i int) float64
	weather                           func(i int) byte
	popular, hasWx, benchmark, google func(i int) bool
}

func (e *refEncoder) Encode(records []extension.Record) []byte {
	c := &refColumns{
		n:         len(records),
		userID:    func(i int) string { return records[i].UserID },
		city:      func(i int) string { return records[i].City },
		country:   func(i int) string { return records[i].Country },
		isp:       func(i int) string { return records[i].ISP },
		asn:       func(i int) int64 { return int64(records[i].ASN) },
		unix:      func(i int) int64 { return records[i].At.Unix() },
		dom:       func(i int) string { return records[i].Domain },
		rank:      func(i int) int64 { return int64(records[i].Rank) },
		popular:   func(i int) bool { return records[i].Popular },
		ptt:       func(i int) float64 { return records[i].PTTMs },
		plt:       func(i int) float64 { return records[i].PLTMs },
		weather:   func(i int) byte { return byte(records[i].Condition) },
		hasWx:     func(i int) bool { return records[i].HasWx },
		benchmark: func(i int) bool { return records[i].Benchmark },
		google:    func(i int) bool { return records[i].Google },
	}
	dst := append(e.buf[:0], BatchMagic...)
	dst = append(dst, 0, 0, 0, 0)
	bodyStart := len(dst)
	dst = append(dst, BatchVersion)
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = append(dst, numBatchCols)
	dst = e.dictCol(dst, colUserID, c.n, c.userID)
	dst = e.dictCol(dst, colCity, c.n, c.city)
	dst = e.dictCol(dst, colCountry, c.n, c.country)
	dst = e.dictCol(dst, colISP, c.n, c.isp)
	dst = e.deltaCol(dst, colASN, c.n, c.asn)
	dst = e.deltaCol(dst, colTimestamp, c.n, c.unix)
	dst = e.dictCol(dst, colDomain, c.n, c.dom)
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

func (e *refEncoder) dictCol(dst []byte, id byte, n int, get func(int) string) []byte {
	if e.index == nil {
		e.index = make(map[string]uint64, 64)
	}
	clear(e.index)
	e.entries, e.idxBuf = e.entries[:0], e.idxBuf[:0]
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
	dst = appendColHeader(dst, id, encDict, len(e.payload))
	return append(dst, e.payload...)
}

func (e *refEncoder) deltaCol(dst []byte, id byte, n int, get func(int) int64) []byte {
	e.payload = e.payload[:0]
	prev := int64(0)
	for i := 0; i < n; i++ {
		v := get(i)
		e.payload = binary.AppendUvarint(e.payload, refZigzag(v-prev))
		prev = v
	}
	dst = appendColHeader(dst, id, encDelta, len(e.payload))
	return append(dst, e.payload...)
}

func (e *refEncoder) bitsCol(dst []byte, id byte, n int, get func(int) bool) []byte {
	nb := (n + 7) / 8
	dst = appendColHeader(dst, id, encBits, nb)
	base := len(dst)
	dst = append(dst, make([]byte, nb)...)
	for i := 0; i < n; i++ {
		if get(i) {
			dst[base+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

func (e *refEncoder) floatCol(dst []byte, id byte, n int, get func(int) float64) []byte {
	e.millis, e.quant = e.millis[:0], e.quant[:0]
	allMilli := true
	for i := 0; i < n; i++ {
		m, q, ok := quantizeMilli(get(i))
		e.millis, e.quant = append(e.millis, m), append(e.quant, q)
		allMilli = allMilli && ok
	}
	if allMilli {
		e.payload = e.payload[:0]
		prev := int64(0)
		for _, m := range e.millis {
			e.payload = binary.AppendUvarint(e.payload, refZigzag(m-prev))
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

// sealBody frames body under a fresh length and CRC.
func sealBody(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32([]byte(BatchMagic), uint32(len(body)))
	f = append(f, body...)
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(body, batchCRC))
}

// frameBody is the body of a whole frame.
func frameBody(frame []byte) []byte { return frame[8 : len(frame)-4] }

// checkViewMatchesRef compares every accessor of v, AppendRecords, and
// EncodeRows over rows with the reference decode of the same body. in is
// the interner that parsed v, or nil.
func checkViewMatchesRef(t *testing.T, name string, v *BatchView, ref *refView, in *Interner, rows []int32) {
	t.Helper()
	if v.Len() != ref.n {
		t.Fatalf("%s: %d rows, reference %d", name, v.Len(), ref.n)
	}
	if v.CityEntries() != len(ref.city.entries) || v.ISPEntries() != len(ref.isp.entries) {
		t.Fatalf("%s: %d city and %d ISP entries, reference %d and %d", name,
			v.CityEntries(), v.ISPEntries(), len(ref.city.entries), len(ref.isp.entries))
	}
	all := v.AppendRecords(nil)
	for i := 0; i < ref.n; i++ {
		want := ref.record(i)
		var got extension.Record
		v.RecordAt(i, &got)
		each := extension.Record{
			UserID: v.UserID(i), City: v.City(i), Country: v.Country(i), ISP: v.ISP(i),
			ASN: v.ASN(i), At: v.At(i), Domain: v.Domain(i), Rank: v.Rank(i),
			Popular: v.Popular(i), PTTMs: v.PTTMs(i), PLTMs: v.PLTMs(i),
			Condition: v.Condition(i), HasWx: v.HasWx(i), Benchmark: v.Benchmark(i), Google: v.Google(i),
		}
		if !recordsEqual(got, want) || !recordsEqual(each, want) || !recordsEqual(all[i], want) ||
			v.Unix(i) != ref.ts[i] {
			t.Fatalf("%s: row %d reads %+v, reference %+v", name, i, got, want)
		}
		if v.CityEntry(i) != ref.city.idx[i] || v.ISPEntry(i) != ref.isp.idx[i] {
			t.Fatalf("%s: row %d names city entry %d and ISP entry %d, reference %d and %d", name, i,
				v.CityEntry(i), v.ISPEntry(i), ref.city.idx[i], ref.isp.idx[i])
		}
		wantID := NoID
		if in != nil {
			_, wantID = in.Intern(want.Domain)
		}
		if v.DomainID(i) != wantID {
			t.Fatalf("%s: row %d domain id %d, want %d", name, i, v.DomainID(i), wantID)
		}
	}
	sub := make([]extension.Record, len(rows))
	for j, r := range rows {
		sub[j] = ref.record(int(r))
	}
	if got, want := new(BatchEncoder).EncodeRows(v, rows), new(refEncoder).Encode(sub); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeRows(%v) differs from the reference encoder", name, rows)
	}
}

// FuzzParseBody seals the fuzz bytes as a frame body under a fresh CRC, so
// mutations reach the column parsers, and holds the parse to refParse: both
// accept or both reject, and an accepted body reads the same through every
// accessor, AppendRecords and EncodeRows over the rows pick chooses, with
// and without an interner.
func FuzzParseBody(f *testing.F) {
	r := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 9, 200} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		f.Add(frameBody(MarshalBatch(recs)), []byte{3, 1, 4, 1, 5, 9})
	}
	frame, recs := repeatedEntriesFrame()
	f.Add(frameBody(frame), []byte{0, 2, 4, 6})
	one := MarshalBatch(recs[:1])
	// Sixteen rows whose PLT column is milli-scaled, and one whose PLT is
	// off the milli grid, so that column travels as raw float bits.
	many := make([]extension.Record, 16)
	for i := range many {
		many[i] = recs[i%len(recs)]
	}
	raw := recs[0]
	raw.PLTMs = math.Inf(1)
	rawOne := MarshalBatch([]extension.Record{raw})
	bad := [][]byte{
		{0x80, 0x00},       // zero, non-minimal
		{0xff, 0x80, 0x00}, // 127, non-minimal
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // ten bytes, the largest value
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // overflows
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		{0x80},       // truncated
		{0xff, 0xff}, // truncated
		{0x02, 0x00}, // one trailing byte
	}
	for _, p := range bad {
		for _, id := range []byte{colASN, colTimestamp, colRank, colPLT} {
			f.Add(frameBody(withColumn(one, id, p)), []byte{0})
			// The same varint among one-byte values of the other rows,
			// starting at each offset mod 8 of the payload.
			for off := 0; off < 8; off++ {
				q := append(bytes.Repeat([]byte{0x02}, off), p...)
				q = append(q, bytes.Repeat([]byte{0x04}, len(many)-1-off)...)
				f.Add(frameBody(withColumn(MarshalBatch(many), id, q)), []byte{0, 0, 9, 0})
			}
		}
		f.Add(frameBody(withColumn(one, colDomain, append([]byte{1, 1, 'x'}, p...))), []byte{0})
	}
	for _, n := range []int{0, 7, 8, 9, 16} { // raw float bits for one row are 8 bytes
		f.Add(frameBody(withColumn(rawOne, colPLT, make([]byte, n))), []byte{0})
	}
	f.Add(append(frameBody(one), 0), []byte{0})
	f.Fuzz(func(t *testing.T, body, pick []byte) {
		ref, rerr := refParse(body)
		frame := sealBody(body)
		v, err := ParseBatchView(frame)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("parse error %v, reference error %v", err, rerr)
		}
		if err != nil {
			return
		}
		var rows []int32
		for i := 0; i+1 < len(pick) && ref.n > 0; i += 2 {
			rows = append(rows, int32(int(binary.LittleEndian.Uint16(pick[i:]))%ref.n))
		}
		checkViewMatchesRef(t, "unpooled", v, ref, nil, rows)
		var pool ViewPool
		pv, err := pool.Parse(frame)
		if err != nil {
			t.Fatalf("pooled parse rejects what the plain parse accepts: %v", err)
		}
		checkViewMatchesRef(t, "pooled", pv, ref, pool.Interner(), rows)
	})
}

// TestEncodeMatchesReference holds Encode, and EncodeRows over a parse of
// its frame, to the reference encoder byte for byte. One encoder serves
// every case, largest first, so scratch a bigger frame left behind would
// show in a smaller one.
func TestEncodeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	var enc BatchEncoder
	check := func(name string, recs []extension.Record) {
		t.Helper()
		want := new(refEncoder).Encode(recs)
		if got := enc.Encode(recs); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode differs from the reference encoder", name)
		}
		v, err := ParseBatchView(append([]byte(nil), want...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all := make([]int32, len(recs))
		for i := range all {
			all[i] = int32(i)
		}
		if !bytes.Equal(enc.EncodeRows(v, all), want) {
			t.Fatalf("%s: EncodeRows over every row differs from the reference encoder", name)
		}
		picks := make([]int32, len(recs)/3)
		sub := make([]extension.Record, len(picks))
		for j := range picks {
			picks[j] = int32(r.Intn(len(recs)))
			v.RecordAt(int(picks[j]), &sub[j])
		}
		if !bytes.Equal(enc.EncodeRows(v, picks), new(refEncoder).Encode(sub)) {
			t.Fatalf("%s: EncodeRows over seeded rows differs from the reference encoder", name)
		}
	}
	for _, n := range []int{65536, 1024, 1, 0} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		check(fmt.Sprintf("n=%d", n), recs)
	}

	// Equal strings in distinct backing arrays, prefixes of one string
	// (one address, several lengths), empty strings, and a user ID per row.
	const base = "starlink-terrestrial"
	recs := make([]extension.Record, 3000)
	for i := range recs {
		recs[i] = randBatchRecord(r)
		recs[i].City = strings.Clone([]string{"Oslo", "Oslo", "Bergen", ""}[r.Intn(4)])
		recs[i].ISP = base[:r.Intn(len(base)+1)]
		recs[i].Domain = strings.Repeat("d", r.Intn(3))
		recs[i].UserID = fmt.Sprintf("user-%d", i)
		if i%5 == 0 {
			recs[i].UserID, recs[i].Country = "", ""
		}
	}
	check("distinct backing arrays and shared ones", recs)

	// Values off the milli grid send a float column raw.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
		recs := make([]extension.Record, 50)
		for i := range recs {
			recs[i] = randBatchRecord(r)
			recs[i].PTTMs = float64(i) / 8
		}
		recs[17].PTTMs, recs[31].PLTMs = x, x
		check(fmt.Sprintf("raw %v", x), recs)
	}
}
