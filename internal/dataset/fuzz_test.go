package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"hash/crc32"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"starlinkview/internal/extension"
)

// FuzzUnmarshalExtensionRow hammers the single-row decoder the collector's
// ingest and WAL-replay paths run per record: arbitrary CSV lines must
// parse or error, never panic, and a successful parse must survive a
// Marshal → Unmarshal round trip unchanged. Seeds are rows as
// cmd/datasetgen emits them.
func FuzzUnmarshalExtensionRow(f *testing.F) {
	seeds := []extension.Record{
		{
			UserID: "anon-0001", City: "London", Country: "GB", ISP: "starlink",
			ASN: 14593, At: time.Date(2022, 4, 11, 9, 0, 0, 0, time.UTC),
			Domain: "example.org", Rank: 12, Popular: true,
			PTTMs: 327.5, PLTMs: 1208.125, HasWx: true,
		},
		{
			UserID: "anon-0002", City: "Sydney", Country: "AU", ISP: "cellular",
			ASN: 1221, At: time.Date(2022, 6, 30, 23, 59, 59, 0, time.UTC),
			Domain: "with,comma.example", Rank: 999999, PTTMs: 0, PLTMs: 0,
			Benchmark: true, Google: true,
		},
	}
	for _, r := range seeds {
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		if err := cw.Write(MarshalExtensionRow(r)); err != nil {
			f.Fatal(err)
		}
		cw.Flush()
		f.Add(buf.String())
	}
	f.Add("")
	f.Add("a,b,c")
	f.Add(strings.Repeat(",", len(extensionHeader)-1))
	f.Add("u,c,GB,starlink,xx,2022-01-01T00:00:00Z,d,1,true,1,2,Clear Sky,true,false,false")
	f.Fuzz(func(t *testing.T, line string) {
		cr := csv.NewReader(strings.NewReader(line))
		row, err := cr.Read()
		if err != nil {
			return
		}
		rec, err := UnmarshalExtensionRow(row)
		if err != nil {
			return
		}
		// Round trip: what the WAL logs must decode back to itself. The
		// schema stores RFC3339 UTC at second precision and the timings at
		// three decimals, so normalise the input the same way first, and
		// skip the handful of timestamps RFC3339 cannot re-express (years
		// outside 0000-9999 after UTC conversion).
		utc := rec.At.UTC().Truncate(time.Second)
		if utc.Year() < 0 || utc.Year() > 9999 {
			return
		}
		back, err := UnmarshalExtensionRow(MarshalExtensionRow(rec))
		if err != nil {
			t.Fatalf("re-unmarshal of marshalled record failed: %v", err)
		}
		milli := func(v float64) float64 {
			q, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
			return q
		}
		want := rec
		want.At = utc
		want.PTTMs, want.PLTMs = milli(rec.PTTMs), milli(rec.PLTMs)
		// Compare the timings by bits, so NaN and -0 must survive too.
		sameBits := math.Float64bits(back.PTTMs) == math.Float64bits(want.PTTMs) &&
			math.Float64bits(back.PLTMs) == math.Float64bits(want.PLTMs)
		rest, wantRest := back, want
		rest.PTTMs, rest.PLTMs, wantRest.PTTMs, wantRest.PLTMs = 0, 0, 0, 0
		if !sameBits || rest != wantRest {
			t.Fatalf("round trip changed record:\n in %+v\nout %+v", want, back)
		}
	})
}

// FuzzReadExtensionCSV ensures arbitrary CSV input never panics the loader.
func FuzzReadExtensionCSV(f *testing.F) {
	f.Add(strings.Join(extensionHeader, ",") + "\n")
	f.Add("")
	f.Add("a,b\n1,2\n")
	f.Add(strings.Join(extensionHeader, ",") + "\nu,c,GB,starlink,1,2022-01-01T00:00:00Z,d,1,true,1,2,Clear Sky,true,false,false\n")
	f.Fuzz(func(t *testing.T, in string) {
		_, _ = ReadExtensionCSV(strings.NewReader(in))
	})
}

// FuzzReadNodeJSON ensures arbitrary JSONL input never panics the loader.
func FuzzReadNodeJSON(f *testing.F) {
	f.Add(`{"node":"x","kind":"iperf","at":"2022-04-11T00:00:00Z"}` + "\n")
	f.Add("{")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		_, _ = ReadNodeJSON(strings.NewReader(in))
	})
}

// FuzzEncodeRowsSplit splits a frame among owners, both chosen by fuzz
// bytes, the way the forwarder splits a misrouted frame. The target
// re-patches the CRC, so a mutated body reaches the column checks, and
// canonicalisation sees repeated and unused dictionary entries, instead of
// stopping at the checksum. EncodeRows over all rows must equal Encode over
// AppendRecords, and each owner's sub-frame must parse to exactly its rows
// of that re-encoded frame, in order. (The parse quantises a foreign
// frame's raw floats, so re-encoding them changes no value.)
func FuzzEncodeRowsSplit(f *testing.F) {
	r := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 9, 60} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
		}
		f.Add(MarshalBatch(recs), []byte{byte(n), 3, 1, 4, 1, 5})
	}
	frame, _ := repeatedEntriesFrame()
	f.Add(frame, []byte{2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, frame, owners []byte) {
		frame = append([]byte(nil), frame...)
		if len(frame) >= 12 {
			binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(frame[8:len(frame)-4], batchCRC))
		}
		v, err := ParseBatchView(frame)
		if err != nil {
			return
		}
		n := v.Len()
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		var enc BatchEncoder
		whole := append([]byte(nil), enc.EncodeRows(v, all)...)
		if !bytes.Equal(whole, new(BatchEncoder).Encode(v.AppendRecords(nil))) {
			t.Fatal("EncodeRows over all rows differs from Encode over AppendRecords")
		}
		want, err := UnmarshalBatch(whole)
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		k := 1
		if len(owners) > 0 {
			k = 1 + int(owners[0])%4
		}
		owned := make([][]int32, k)
		for i := 0; i < n; i++ {
			o := 0
			if len(owners) > 1 {
				o = int(owners[1+i%(len(owners)-1)]) % k
			}
			owned[o] = append(owned[o], int32(i))
		}
		for o, rows := range owned {
			sub, err := UnmarshalBatch(enc.EncodeRows(v, rows))
			if err != nil {
				t.Fatalf("owner %d: sub-frame does not parse: %v", o, err)
			}
			if len(sub) != len(rows) {
				t.Fatalf("owner %d: %d rows, want %d", o, len(sub), len(rows))
			}
			for j, got := range sub {
				if !recordsEqual(got, want[rows[j]]) {
					t.Fatalf("owner %d: row %d is not original row %d", o, j, rows[j])
				}
			}
		}
	})
}
