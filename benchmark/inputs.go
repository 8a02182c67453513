package main

import (
	"fmt"
	"time"
	"unsafe"

	"starlinkview/internal/core"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
)

const (
	// frameRecords is the batch size of every ingest workload: one client
	// flush, one wire frame, one WAL append.
	frameRecords = 1024
	// poolFrames bounds the benchmark's own input pool: 32 frames of 1024
	// records is ≈7 MB of extension.Record values (≈1.1 MB encoded), well
	// under the 16 MB the pool may occupy, and cycling it repeats every
	// (city, ISP) group many times a second.
	poolFrames = 32
)

// groupKey is the collector's aggregation key.
type groupKey struct{ City, ISP string }

// pool is a workload's generated input: campaign records cut into frames.
// The program under test sees only these records and frames.
type pool struct {
	records []extension.Record // poolFrames × frameRecords
	frames  [][]byte           // the same records, encoded frame by frame
	bytes   int                // approximate resident size of the pool
	genRate float64            // campaign records generated per second
}

func (p *pool) frame(i int) []extension.Record {
	return p.records[i*frameRecords : (i+1)*frameRecords]
}

// stream is the share of the pool that stream s of n cycles over: whole
// frames, so a stream's records are also a run of p.frames.
func (p *pool) stream(s, n int) []extension.Record {
	per := poolFrames / n * frameRecords
	return p.records[s*per : (s+1)*per]
}

// newPool draws one campaign chunk for the run's seed over the given number
// of cities and keeps the first poolFrames×frameRecords records. The
// population is sized so a chunk always yields more than that (mean ≈1.6
// records per user in the first six-hour chunk).
func (e *env) newPool(cities int) (*pool, error) {
	cfg := core.SmallCampaign()
	cfg.Seed = e.seed
	cfg.Cities = cities
	cfg.Users = 26_000
	cfg.Chunks = 1
	cfg.Workers = 1
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	want := poolFrames * frameRecords
	p := &pool{}
	start := time.Now()
	err = camp.RunChunk(func(recs []extension.Record) error {
		p.genRate = float64(len(recs)) / time.Since(start).Seconds()
		if len(recs) < want {
			return fmt.Errorf("campaign chunk gave %d records, pool needs %d", len(recs), want)
		}
		// Copy so the chunk's larger backing array can be collected.
		p.records = append([]extension.Record(nil), recs[:want]...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var enc dataset.BatchEncoder
	for i := 0; i < poolFrames; i++ {
		f := enc.Encode(p.frame(i))
		p.frames = append(p.frames, append([]byte(nil), f...))
		p.bytes += len(f)
	}
	// Record struct plus its two per-record strings (user id, domain).
	p.bytes += want * (int(unsafe.Sizeof(extension.Record{})) + 24)
	e.poolBytes = p.bytes
	return p, nil
}

// tally counts records per aggregation group.
type tally map[groupKey]uint64

func (t tally) addRecords(recs []extension.Record, times uint64) {
	for i := range recs {
		t[groupKey{recs[i].City, recs[i].ISP}] += times
	}
}

// sentTally is the multiset a cyclic sender delivered: it walked recs from
// the start, wrapping, for n records in all.
func (t tally) addCyclic(recs []extension.Record, n uint64) {
	l := uint64(len(recs))
	if cycles := n / l; cycles > 0 {
		t.addRecords(recs, cycles)
	}
	t.addRecords(recs[:n%l], 1)
}
