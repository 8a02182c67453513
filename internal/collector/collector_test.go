package collector

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/trace"
)

// offerRecords feeds records to the aggregator as one batch frame, the one
// way browsing records reach its shards, and returns how many it accepted.
func offerRecords(a *Aggregator, recs ...extension.Record) int {
	acc, _ := a.OfferExtensionFrame(nil, recs, trace.SpanContext{})
	return acc
}

// testRecord builds a cheap synthetic browsing record.
func testRecord(rng *rand.Rand, city, isp string) extension.Record {
	return extension.Record{
		UserID: fmt.Sprintf("anon-%08x", rng.Uint32()),
		City:   city, Country: "GB", ISP: isp, ASN: 14593,
		At:     time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(86400)) * time.Second),
		Domain: fmt.Sprintf("site-%d.example", rng.Intn(40)),
		Rank:   1 + rng.Intn(1000), Popular: rng.Intn(2) == 0,
		PTTMs: 100 + rng.Float64()*900, PLTMs: 500 + rng.Float64()*2000,
	}
}

func TestAggregatorCountsAndGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	agg := NewAggregator(Config{Shards: 4, QueueLen: 64})
	const n = 5000
	perGroup := map[extKey]int{}
	for i := 0; i < n; i++ {
		city := []string{"London", "Seattle", "Sydney"}[rng.Intn(3)]
		isp := []string{"starlink", "broadband", "cellular"}[rng.Intn(3)]
		if offerRecords(agg, testRecord(rng, city, isp)) != 1 {
			t.Fatal("Block policy must never shed")
		}
		perGroup[extKey{city, isp}]++
	}
	agg.Close()
	snap := agg.Snapshot()
	if snap.Accepted != n || snap.Processed != n || snap.Dropped != 0 {
		t.Fatalf("counters: %+v", snap)
	}
	if len(snap.Groups) != len(perGroup) {
		t.Fatalf("got %d groups, want %d", len(snap.Groups), len(perGroup))
	}
	for _, g := range snap.Groups {
		if int(g.Count) != perGroup[extKey{g.City, g.ISP}] {
			t.Fatalf("group %s/%s count %d, want %d", g.City, g.ISP, g.Count, perGroup[extKey{g.City, g.ISP}])
		}
		if g.P50PTTMs < 100 || g.P50PTTMs > 1000 {
			t.Fatalf("group %s/%s implausible p50 %v", g.City, g.ISP, g.P50PTTMs)
		}
	}
	// Offers after Close are shed, not panics.
	if offerRecords(agg, testRecord(rng, "London", "starlink")) == 1 {
		t.Fatal("offer after close must report shed")
	}
}

func TestAggregatorConcurrentProducers(t *testing.T) {
	agg := NewAggregator(Config{Shards: 8, QueueLen: 128})
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				offerRecords(agg, testRecord(rng, fmt.Sprintf("City%d", rng.Intn(12)), "starlink"))
			}
		}(int64(w))
	}
	wg.Wait()
	agg.Close()
	snap := agg.Snapshot()
	if snap.Processed != workers*each {
		t.Fatalf("processed %d, want %d", snap.Processed, workers*each)
	}
	var total uint64
	for _, g := range snap.Groups {
		total += g.Count
	}
	if total != workers*each {
		t.Fatalf("group counts sum to %d, want %d", total, workers*each)
	}
}

func TestDropNewestShedsUnderPressure(t *testing.T) {
	agg := NewAggregator(Config{
		Shards: 1, QueueLen: 4, Policy: DropNewest,
		applyDelay: 2 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(2))
	const n = 200
	offered, shed := 0, 0
	for i := 0; i < n; i++ {
		if offerRecords(agg, testRecord(rng, "London", "starlink")) == 1 {
			offered++
		} else {
			shed++
		}
	}
	agg.Close()
	snap := agg.Snapshot()
	if shed == 0 {
		t.Fatal("expected drops with a slow shard and a 4-slot queue")
	}
	if snap.Accepted != uint64(offered) || snap.Dropped != uint64(shed) {
		t.Fatalf("accepted=%d dropped=%d, want %d/%d", snap.Accepted, snap.Dropped, offered, shed)
	}
	// Drain guarantee: everything accepted was applied.
	if snap.Processed != snap.Accepted {
		t.Fatalf("processed %d != accepted %d after Close", snap.Processed, snap.Accepted)
	}
	if snap.Shards[0].IngestP50Us <= 0 {
		t.Fatal("ingest latency not measured")
	}
}

func TestBlockPolicyLosesNothingUnderPressure(t *testing.T) {
	agg := NewAggregator(Config{
		Shards: 2, QueueLen: 2, Policy: Block,
		applyDelay: 500 * time.Microsecond,
	})
	rng := rand.New(rand.NewSource(3))
	const n = 300
	for i := 0; i < n; i++ {
		if offerRecords(agg, testRecord(rng, "Seattle", []string{"starlink", "broadband"}[i%2])) != 1 {
			t.Fatal("Block policy shed a record")
		}
	}
	agg.Close()
	snap := agg.Snapshot()
	if snap.Processed != n || snap.Dropped != 0 {
		t.Fatalf("processed=%d dropped=%d, want %d/0", snap.Processed, snap.Dropped, n)
	}
}

func TestSnapshotWhileIngesting(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4, QueueLen: 256})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		for {
			select {
			case <-stop:
				return
			default:
				offerRecords(agg, testRecord(rng, "Warsaw", "starlink"))
			}
		}
	}()
	for i := 0; i < 20; i++ {
		snap := agg.Snapshot()
		if snap.Dropped != 0 {
			t.Errorf("unexpected drops: %d", snap.Dropped)
		}
	}
	close(stop)
	wg.Wait()
	agg.Close()
	snap := agg.Snapshot()
	if snap.Processed != snap.Accepted {
		t.Fatalf("processed %d != accepted %d", snap.Processed, snap.Accepted)
	}
}

func TestServerIngestRoundTrip(t *testing.T) {
	srv := NewServer(Config{Shards: 4})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.URL(), ClientConfig{BatchSize: 32, FlushEvery: 20 * time.Millisecond})
	rng := rand.New(rand.NewSource(5))
	const n = 500
	for i := 0; i < n; i++ {
		if err := client.AddRecord(testRecord(rng, "London", "starlink")); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	cs := client.Stats()
	if cs.Records != n {
		t.Fatalf("client sent %d records, want %d", cs.Records, n)
	}
	if cs.Batches < 2 {
		t.Fatalf("batching did not engage: %d batches", cs.Batches)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap := srv.Aggregator().Snapshot()
	if snap.Processed != n || snap.Dropped != 0 {
		t.Fatalf("server processed %d (dropped %d), want %d", snap.Processed, snap.Dropped, n)
	}
	if len(snap.Groups) != 1 || snap.Groups[0].Count != n {
		t.Fatalf("groups: %+v", snap.Groups)
	}
}

func TestServerRejectsMalformedBatch(t *testing.T) {
	srv := NewServer(Config{Shards: 1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	// A frame whose body no longer matches its CRC.
	frame := dataset.MarshalBatch([]extension.Record{testRecord(rand.New(rand.NewSource(1)), "London", "starlink")})
	frame[len(frame)/2] ^= 0xff
	resp, err := http.Post(srv.URL()+PathIngestBatch, BatchContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL() + PathSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
}

// TestServerDropsStalledHeaders pins the listener's header timeout: a client
// that opens a connection and never finishes its request headers is
// disconnected (before it, such a connection was held forever), and a
// connection that idles between requests has a bound too. The default
// server carries the constants; the disconnect is checked on a server whose
// header timeout is shortened, so the test does not wait the full bound.
func TestServerDropsStalledHeaders(t *testing.T) {
	def := NewServer(Config{Shards: 1})
	if def.hs.ReadHeaderTimeout != readHeaderTimeout || def.hs.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("http.Server timeouts: header %v idle %v", def.hs.ReadHeaderTimeout, def.hs.IdleTimeout)
	}
	if err := def.Aggregator().Close(); err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	srv := NewServer(Config{Shards: 1, headerTimeout: timeout})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST " + PathIngestBatch + " HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server closes without a reply; a read deadline of our own tells a
	// disconnect (EOF) from a connection still held open (timeout).
	if err := conn.SetReadDeadline(start.Add(timeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled client after %v: read error %v, want EOF from a server-side close", time.Since(start), err)
	}
	if waited := time.Since(start); waited < timeout/2 {
		t.Fatalf("disconnected after %v, before the %v header timeout", waited, timeout)
	}
}

func TestPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"block", Block}, {"drop", DropNewest}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("round trip %q -> %q", tc.in, got)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
