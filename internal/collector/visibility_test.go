package collector

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
)

// visibilityKeys are the groups the visibility tests spread records over.
var visibilityKeys = []extKey{
	{"London", "starlink"}, {"London", "terrestrial"}, {"Lima", "dsl"},
	{"Oslo", "starlink"}, {"Perth", "fibre"}, {"Cairo", "cable"},
}

// groupCounts indexes a snapshot's per-group record counts by key.
func groupCounts(s *Snapshot) map[extKey]uint64 {
	counts := make(map[extKey]uint64, len(s.Groups))
	for _, g := range s.Groups {
		counts[extKey{g.City, g.ISP}] = g.Count
	}
	return counts
}

// TestSnapshotCoversAckedOffers holds the read path to its visibility rule:
// a snapshot covers every record whose offer returned before the snapshot
// was asked for. Two writers offer small frames to shards slowed by
// applyDelay, so the queues keep a backlog, and publish each group's acked
// count after every offer returns; two readers load those counts, then take
// a snapshot, and every group must hold at least its acked count. It runs
// 20 seeds over shards ∈ {1, 3, 4}, with and without a WAL, in about half a
// second on 2 vCPU.
func TestSnapshotCoversAckedOffers(t *testing.T) {
	const (
		writers = 2
		offers  = 12 // of 1–3 records each
	)
	for seed := int64(0); seed < 20; seed++ {
		shards := []int{1, 3, 4}[seed%3]
		durable := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/shards=%d/wal=%v", seed, shards, durable), func(t *testing.T) {
			cfg := Config{Shards: shards, Registry: obs.NewRegistry(), applyDelay: 20 * time.Microsecond}
			if durable {
				cfg.WAL = WALConfig{Dir: t.TempDir()}
			}
			a, err := OpenAggregator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var acked [writers][]atomic.Uint64
			var wg sync.WaitGroup
			for w := range acked {
				acked[w] = make([]atomic.Uint64, len(visibilityKeys))
				r := rand.New(rand.NewSource(seed*writers + int64(w)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < offers; i++ {
						n := 1 + r.Intn(3)
						recs := make([]extension.Record, n)
						groups := make([]int, n)
						for j := range recs {
							groups[j] = r.Intn(len(visibilityKeys))
							k := visibilityKeys[groups[j]]
							recs[j] = extension.Record{City: k.City, ISP: k.ISP, Domain: fmt.Sprintf("d%d.example", r.Intn(50)), PTTMs: float64(r.Intn(3000))}
						}
						if offerRecords(a, recs...) != n {
							t.Error("offer rejected")
							return
						}
						for _, g := range groups {
							acked[w][g].Add(1)
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			check := func() {
				want := make([]uint64, len(visibilityKeys))
				for w := range acked {
					for g := range want {
						want[g] += acked[w][g].Load()
					}
				}
				have := groupCounts(a.Snapshot())
				for g, k := range visibilityKeys {
					if have[k] < want[g] {
						t.Errorf("%s/%s: snapshot holds %d records, %d were acked before it", k.City, k.ISP, have[k], want[g])
					}
				}
			}
			var readers sync.WaitGroup
			for range 2 {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							check()
							return
						default:
							check()
						}
					}
				}()
			}
			readers.Wait()
		})
	}
}

// TestDropNewestSnapshotCoversAccepted reads a DropNewest aggregator whose
// one-slot queues stay full behind a slow shard. A snapshot must still
// return, must hold every record the offers reported accepted, and must not
// itself count a drop: a read is queued with a blocking send whatever the
// policy, and is never shed.
func TestDropNewestSnapshotCoversAccepted(t *testing.T) {
	a := NewAggregator(Config{Shards: 2, QueueLen: 1, Policy: DropNewest, applyDelay: 200 * time.Microsecond})
	defer a.Close()
	r := rand.New(rand.NewSource(5))
	accepted := make(map[extKey]uint64)
	var dropped uint64
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			k := visibilityKeys[r.Intn(len(visibilityKeys))]
			if offerRecords(a, extension.Record{City: k.City, ISP: k.ISP, Domain: "d.example", PTTMs: 10}) == 1 {
				accepted[k]++
			} else {
				dropped++
			}
		}
		if before := a.Stats().Dropped; before != dropped {
			t.Fatalf("round %d: %d drops counted, offers reported %d", round, before, dropped)
		}
		got := make(chan *Snapshot, 1)
		go func() { got <- a.Snapshot() }()
		var snap *Snapshot
		select {
		case snap = <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Snapshot did not return behind full queues", round)
		}
		have := groupCounts(snap)
		for k, n := range accepted {
			if have[k] != n {
				t.Errorf("round %d: %s/%s: snapshot holds %d records, offers accepted %d", round, k.City, k.ISP, have[k], n)
			}
		}
		if snap.Dropped != dropped || a.Stats().Dropped != dropped {
			t.Fatalf("round %d: a snapshot changed Dropped: %d in it, %d after it, want %d", round, snap.Dropped, a.Stats().Dropped, dropped)
		}
	}
	if dropped == 0 {
		t.Fatal("no offer was shed: the queues never filled")
	}
}
