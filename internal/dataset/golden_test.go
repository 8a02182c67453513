package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/weather"
)

// goldenRecords is the fixed record set behind the wire digests: seeded
// draws over every column type, with the cases the encoder branches on
// planted at fixed rows — all-empty strings (row 0), a negative that
// quantises to -0.0 in a milli column (PTT) and in a raw column (PLT), and
// one +Inf that forces the whole PLT column onto encF64Raw.
func goldenRecords(n int) []extension.Record {
	r := rand.New(rand.NewSource(20220301))
	cities := []string{"London", "Zürich", "São Paulo", "北京", ""}
	isps := []string{"starlink", "terrestrial", ""}
	domains := []string{"example.com", "検索.jp", "a.b.c", ""}
	conds := weather.Conditions()
	recs := make([]extension.Record, n)
	for i := range recs {
		recs[i] = extension.Record{
			UserID:    "u" + string(rune('a'+r.Intn(26))),
			City:      cities[r.Intn(len(cities))],
			Country:   []string{"UK", "CH", "BR", ""}[r.Intn(4)],
			ISP:       isps[r.Intn(len(isps))],
			ASN:       r.Intn(1<<20) - 1<<10,
			At:        time.Unix(1646092800+int64(r.Intn(1<<20)), int64(r.Intn(1e9))),
			Domain:    domains[r.Intn(len(domains))],
			Rank:      r.Intn(2e6) - 100,
			Popular:   r.Intn(2) == 0,
			PTTMs:     (r.Float64() - 0.1) * 900,
			PLTMs:     r.Float64() * 4000,
			Condition: conds[r.Intn(len(conds))],
			HasWx:     r.Intn(2) == 0,
			Benchmark: r.Intn(4) == 0,
			Google:    r.Intn(4) == 0,
		}
	}
	if n > 0 {
		recs[0].UserID, recs[0].City, recs[0].Country, recs[0].ISP, recs[0].Domain = "", "", "", "", ""
	}
	if n > 700 {
		recs[300].PTTMs = -0.0004
		recs[500].PLTMs = -0.0004
		recs[700].PLTMs = math.Inf(1)
	}
	return recs
}

// TestBatchGoldenWireDigest pins the wire — and therefore the WAL — bytes to
// the output of the allocating encoder this codec replaced (AppendBatch,
// deleted in the one-codec refactor). The digests were computed at the last
// commit that had it, so "bytes unchanged" is checked against that encoder
// rather than against the code under test.
func TestBatchGoldenWireDigest(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "18bdc95ac621f6a2be92c453c8ea1295bdb688fc2eac2ae84cbcb96aac528a6e"},
		{1, "c534d2e8874ae1668fb081c0f87ca00b8f84683cd42efd21c794f9faed4cb656"},
		{1024, "1ec6ff5eb5f6a416ca2c0dcfa478d7440ed032bffed25a566b6f0071650c722d"},
	} {
		sum := sha256.Sum256(MarshalBatch(goldenRecords(tc.n)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("n=%d: wire digest %s, want %s", tc.n, got, tc.want)
		}
	}
}

// goldenEncodeRowsDigest was computed while EncodeRows still built each
// output dictionary by hashing the row's strings, so it pins the split's
// bytes against that encoder rather than against the code under test.
const goldenEncodeRowsDigest = "f40970ca42531bbc652787e0f364121b7c4b70718a0f7a73bc84b4f57f97457f"

// TestEncodeRowsGoldenDigest hashes EncodeRows over seeded frames with
// repeated and empty strings: every row, each owner's rows under seeded
// k-owner splits, the rows in a seeded permutation, and seeded draws that
// name some rows twice. One encoder serves every frame, largest first, so
// scratch a bigger frame left behind would change a smaller frame's bytes.
func TestEncodeRowsGoldenDigest(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	var enc BatchEncoder
	var pool ViewPool
	h := sha256.New()
	for _, n := range []int{2000, 7, 513, 0, 1} {
		recs := make([]extension.Record, n)
		for i := range recs {
			recs[i] = randBatchRecord(r)
			if r.Intn(5) == 0 {
				recs[i].UserID = ""
			}
			if r.Intn(7) == 0 {
				recs[i].Domain = ""
			}
		}
		v, err := pool.Parse(MarshalBatch(recs))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		fmt.Fprintf(h, "n=%d all\n", n)
		h.Write(enc.EncodeRows(v, all))
		for _, k := range []int{2, 3, 5} {
			owned := make([][]int32, k)
			for i := 0; i < n; i++ {
				o := r.Intn(k)
				owned[o] = append(owned[o], int32(i))
			}
			for o, rows := range owned {
				fmt.Fprintf(h, "n=%d k=%d owner %d: %d rows\n", n, k, o, len(rows))
				h.Write(enc.EncodeRows(v, rows))
			}
		}
		perm := make([]int32, n)
		for i, p := range r.Perm(n) {
			perm[i] = int32(p)
		}
		fmt.Fprintf(h, "n=%d perm\n", n)
		h.Write(enc.EncodeRows(v, perm))
		if n > 0 {
			picks := make([]int32, n/2+3)
			for i := range picks {
				picks[i] = int32(r.Intn(n))
			}
			fmt.Fprintf(h, "n=%d picks\n", n)
			h.Write(enc.EncodeRows(v, picks))
		}
		pool.Put(v)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEncodeRowsDigest {
		t.Errorf("EncodeRows digest %s, want %s", got, goldenEncodeRowsDigest)
	}
}
