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
// fresh-packet engine it replaced made about 9). The clean link loses only
// the few packets that overflow its queue, so a second run drops 1 % of
// packets: that flow spends its time in loss recovery, with SACK blocks in
// every ack and the sender taking over each ack's block buffer. A third run
// crosses two forwarding nodes (client → pop → ix → server, the shape of
// ispnet's short Starlink path), so every segment and ack also takes a route
// lookup at each of them. Run without the race detector; `make check` runs
// it explicitly.
func TestIperfAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("tens of seconds of simulated transfer are not short")
	}
	for _, tc := range []struct {
		name    string
		nodes   []string
		loss    float64
		until   time.Duration
		minSent int
	}{
		{"clean", []string{"c", "s"}, 0, 20 * time.Second, 100_000},
		{"loss1pct", []string{"c", "s"}, 0.01, 60 * time.Second, 20_000},
		{"forwarding", []string{"client", "pop", "ix", "server"}, 0, 20 * time.Second, 100_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.NewSim(1)
			spec := netsim.LinkSpec{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 500000}
			if tc.loss > 0 {
				spec.LossFn = func(netsim.Time, *netsim.Packet) bool { return sim.Rand().Float64() < tc.loss }
			}
			nodes := make([]*netsim.Node, len(tc.nodes))
			specs := make([]netsim.LinkSpec, len(tc.nodes)-1)
			for i, name := range tc.nodes {
				nodes[i] = netsim.NewNode(name, "")
			}
			for i := range specs {
				specs[i] = spec
			}
			path, err := netsim.NewPath(nodes, specs, nil)
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
			st := f.Stats()
			runtime.ReadMemStats(&before)
			sim.RunUntil(tc.until)
			runtime.ReadMemStats(&after)
			f.Stop()

			end := f.Stats()
			sent := end.SentPackets - st.SentPackets
			if sent < tc.minSent {
				t.Fatalf("only %d packets sent in the measured window", sent)
			}
			if tc.loss > 0 && end.FastRecoveries-st.FastRecoveries < 100 {
				t.Fatalf("only %d recoveries in the measured window", end.FastRecoveries-st.FastRecoveries)
			}
			allocs := float64(after.Mallocs-before.Mallocs) / float64(sent)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(sent)
			t.Logf("steady state: %d packets, %d recoveries, %.4f allocs and %.1f B per sent packet",
				sent, end.FastRecoveries-st.FastRecoveries, allocs, bytes)
			if allocs > 0.05 {
				t.Fatalf("packet path allocates %.4f/packet (%.1f B); budget is 0.05", allocs, bytes)
			}
		})
	}
}
