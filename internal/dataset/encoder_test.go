package dataset

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"strconv"
	"testing"

	"starlinkview/internal/extension"
)

// TestFootprintCountsScratch grows one scratch buffer of an otherwise
// empty encoder at a time, each to just past 4 MiB of real bytes (the
// collector's splitter pool limit), and requires Footprint to pass 4 MiB
// too, so a pool that drops encoders by Footprint drops one that any
// single buffer has blown up.
func TestFootprintCountsScratch(t *testing.T) {
	const limit = 4 << 20
	for name, grow := range map[string]func(e *BatchEncoder){
		"frame":       func(e *BatchEncoder) { e.buf = make([]byte, 0, limit+1) },
		"slot table":  func(e *BatchEncoder) { e.slots.slots = make([]uint64, 0, limit/8+1) },
		"entries":     func(e *BatchEncoder) { e.entries = make([]string, 0, limit/16+1) },
		"remap":       func(e *BatchEncoder) { e.remap = make([]uint32, 0, limit/4+1) },
		"order":       func(e *BatchEncoder) { e.order = make([]uint32, 0, limit/4+1) },
		"strings":     func(e *BatchEncoder) { e.strs = make([]string, 0, limit/16+1) },
		"ints":        func(e *BatchEncoder) { e.ints = make([]int64, 0, limit/8+1) },
		"floats":      func(e *BatchEncoder) { e.floats = make([]float64, 0, limit/8+1) },
		"millis":      func(e *BatchEncoder) { e.millis = make([]int64, 0, limit/8+1) },
		"index bytes": func(e *BatchEncoder) { e.idxBuf = make([]byte, 0, limit+1) },
		"payload":     func(e *BatchEncoder) { e.payload = make([]byte, 0, limit+1) },
	} {
		var e BatchEncoder
		grow(&e)
		if got := e.Footprint(); got <= limit {
			t.Errorf("%s alone past %d B: Footprint %d", name, limit, got)
		}
	}
}

// tagTwins returns two distinct strings whose dictSeed hashes agree in the
// slot tag (the low 32 bits) and in the top two bits, so in a four-slot
// table they share a tag and a home slot and only a key compare tells them
// apart.
func tagTwins() (string, string) {
	seen := make(map[uint64]string)
	for i := 0; ; i++ {
		s := strconv.Itoa(i)
		h := maphash.String(dictSeed, s)
		k := h&(1<<32-1) | h>>62<<32
		if o, ok := seen[k]; ok {
			return o, s
		}
		seen[k] = s
	}
}

// TestSlotTablesCompareKeysOnTagMatch encodes and parses two rows whose
// strings share a slot tag and a home slot in every column, so each slot
// table (the encoder's string dictionary, the parse's canonicalise, the
// EncodeRows merge of user IDs) sees the tag match and must still keep
// the two strings apart.
func TestSlotTablesCompareKeysOnTagMatch(t *testing.T) {
	a, b := tagTwins()
	r := rand.New(rand.NewSource(40))
	recs := []extension.Record{randBatchRecord(r), randBatchRecord(r)}
	for i, s := range []string{a, b} {
		recs[i].UserID, recs[i].City, recs[i].Country, recs[i].ISP, recs[i].Domain = s, s, s, s, s
	}
	frame := MarshalBatch(recs)
	if !bytes.Equal(frame, new(refEncoder).Encode(recs)) {
		t.Fatalf("%q and %q: Encode differs from the reference encoder", a, b)
	}
	v, err := ParseBatchView(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v.CityEntry(0) == v.CityEntry(1) || v.City(0) != a || v.City(1) != b {
		t.Fatalf("%q and %q: parsed as one city entry", a, b)
	}
	if !bytes.Equal(new(BatchEncoder).EncodeRows(v, []int32{0, 1}), frame) {
		t.Fatalf("%q and %q: EncodeRows differs from Encode", a, b)
	}
}
