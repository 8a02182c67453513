package cc

import (
	"runtime"
	"testing"
	"time"

	"starlinkview/internal/netsim"
)

// TestIperfAllocBudget pins the packet engine's allocation win: a bulk cubic
// transfer of the kind measure.IperfTCP runs, over the path the benchmark's
// cc.iperf stage uses (100 Mb/s, 10 ms, 500 kB queue), must stay at or below
// 0.05 allocations per sent packet once past a 1 s warm-up (the closure and
// fresh-packet engine it replaced made about 9). Run without the race
// detector; `make check` runs it explicitly.
func TestIperfAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("20 s of simulated transfer is not short")
	}
	sim := netsim.NewSim(1)
	path, err := netsim.NewPath(
		[]*netsim.Node{netsim.NewNode("c", ""), netsim.NewNode("s", "")},
		[]netsim.LinkSpec{{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 500000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := New("cubic")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlow(sim, path, FlowConfig{Algorithm: algo, SrcPort: 42001, DstPort: 42002})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	sim.RunUntil(time.Second)

	var before, after runtime.MemStats
	sent := f.Stats().SentPackets
	runtime.ReadMemStats(&before)
	sim.RunUntil(20 * time.Second)
	runtime.ReadMemStats(&after)
	f.Stop()

	sent = f.Stats().SentPackets - sent
	if sent < 100_000 {
		t.Fatalf("only %d packets sent in the measured window", sent)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(sent)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(sent)
	t.Logf("steady state: %d packets, %.4f allocs and %.1f B per sent packet", sent, allocs, bytes)
	if allocs > 0.05 {
		t.Fatalf("packet path allocates %.4f/packet (%.1f B); budget is 0.05", allocs, bytes)
	}
}
