package collector

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// TestClientPostAllocBudget: a client left to build its own transport
// POSTs a 1024-record frame without net/http's per-request copy buffer
// (up to 32 KiB, taken whenever a body outgrows the connection's write
// buffer). Everything the process allocates counts — client encode,
// request, server read, parse and apply — since the server runs in-process.
func TestClientPostAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc measurement loop is not short")
	}
	const perFrame, posts, budget = 1024, 200, 20 << 10
	srv := NewServer(Config{Shards: 4, QueueLen: 4096, Policy: Block})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Aggregator().Close()
	defer srv.Shutdown(context.Background())
	c := NewClient(srv.URL(), ClientConfig{BatchSize: perFrame})
	defer c.Close()
	recs := fastpathRecords(rand.New(rand.NewSource(26)), perFrame)
	post := func() {
		for _, r := range recs {
			if err := c.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		post() // warm the connection, pools and the server's tables
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perPost := float64(after.TotalAlloc-before.TotalAlloc) / posts
	t.Logf("%.0f B and %.1f allocs per %d-record POST", perPost,
		float64(after.Mallocs-before.Mallocs)/posts, perFrame)
	if perPost > budget {
		t.Fatalf("%.0f B allocated per POST; budget is %d", perPost, budget)
	}
}
