package measure

import (
	"runtime"
	"testing"
	"time"

	"starlinkview/internal/netsim"
)

// TestUDPBlastAllocBudget pins the probe train's allocation win: a 5 s,
// 100 Mb/s IperfUDP blast over the path cc's TestIperfAllocBudget uses
// (100 Mb/s, 10 ms, 500 kB queue) must stay at or below 0.05 allocations per
// sent packet once a 1 s blast on the same Sim has warmed the free-lists (a
// closure and a fresh packet per probe made about 2). Run without the race
// detector; `make check` runs it explicitly.
func TestUDPBlastAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := netsim.NewSim(1)
	path, err := netsim.NewPath(
		[]*netsim.Node{netsim.NewNode("c", ""), netsim.NewNode("s", "")},
		[]netsim.LinkSpec{{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 500000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IperfUDP(sim, path, 100e6, time.Second, false); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := IperfUDP(sim, path, 100e6, 5*time.Second, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.SentPackets < 40_000 {
		t.Fatalf("only %d packets sent in the measured blast", res.SentPackets)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(res.SentPackets)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.SentPackets)
	t.Logf("%d packets, %.4f allocs and %.1f B per sent packet", res.SentPackets, allocs, bytes)
	if allocs > 0.05 {
		t.Fatalf("UDP blast allocates %.4f/packet (%.1f B); budget is 0.05", allocs, bytes)
	}
}

// TestRenewedSimAllocBudget pins what Sim.Renew saves: a speedtest on a
// renewed Sim, over a path built fresh for it, allocates no packets the
// first run did not leave on the free-list. The path (200 Mb/s, 20 ms,
// 2 MB queue) keeps a few thousand packets in flight at once, which a new
// Sim allocates again (about 0.03 objects per sent packet, free-list and
// event queue included); the renewed run must stay at or below 0.01
// objects per packet sent, packets and everything else together. Run
// without the race detector; `make check` runs it explicitly.
func TestRenewedSimAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	newPath := func() *netsim.Path {
		p, err := netsim.NewPath(
			[]*netsim.Node{netsim.NewNode("c", ""), netsim.NewNode("s", "")},
			[]netsim.LinkSpec{{RateBps: 200e6, Delay: 20 * time.Millisecond, QueueByte: 2_000_000}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	opts := SpeedtestOptions{PhaseDuration: time.Second}
	sim := netsim.NewSim(1)
	if _, err := Speedtest(sim, newPath(), opts); err != nil {
		t.Fatal(err)
	}

	sim = sim.Renew(2)
	path := newPath()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Speedtest(sim, path, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sent := path.AccessFwd().Stats().SentPackets + path.AccessRev().Stats().SentPackets
	if sent < 50_000 {
		t.Fatalf("only %d packets sent in the measured speedtest", sent)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(sent)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(sent)
	t.Logf("%d packets, %.4f allocs and %.1f B per sent packet", sent, allocs, bytes)
	if allocs > 0.01 {
		t.Fatalf("speedtest on a renewed Sim allocates %.4f/packet (%.1f B); budget is 0.01", allocs, bytes)
	}
}
