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
