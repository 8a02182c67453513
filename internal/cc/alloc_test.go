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
// packets: that flow spends its time in loss recovery, with SACK state in
// every ack. A third run crosses two forwarding nodes (client → pop → ix →
// server, the shape of ispnet's short Starlink path), so every segment and
// ack also takes a route lookup at each of them. A fourth run measures a
// fresh Sim from its first packet over a longer, deeper path (200 Mb/s,
// 20 ms, 2 MB queue): its window holds the slow-start overflow and, from
// 1 s on, a handover-like burst that loses a fifth of the packets in the
// first 20 ms of every second, so the SACK state grows there from nothing
// while a window of acks is in flight. Its packet free-list is filled first,
// as the others' warm-up fills theirs, so the window counts what the flow's
// SACK state allocates and not the Sim's packets. Run without the race
// detector; `make check` runs it explicitly.
func TestIperfAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("tens of seconds of simulated transfer are not short")
	}
	short := netsim.LinkSpec{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 500000}
	long := netsim.LinkSpec{RateBps: 200e6, Delay: 20 * time.Millisecond, QueueByte: 2_000_000}
	for _, tc := range []struct {
		name           string
		nodes          []string
		spec           netsim.LinkSpec
		loss           float64 // random loss on every packet
		bursts         bool    // a fifth lost in the first 20 ms of every second from 1 s on
		warmup, until  time.Duration
		minSent, minFR int
	}{
		{"clean", []string{"c", "s"}, short, 0, false, time.Second, 20 * time.Second, 100_000, 0},
		{"loss1pct", []string{"c", "s"}, short, 0.01, false, time.Second, 60 * time.Second, 20_000, 100},
		{"forwarding", []string{"client", "pop", "ix", "server"}, short, 0, false, time.Second, 20 * time.Second, 100_000, 0},
		{"freshBursts", []string{"c", "s"}, long, 0, true, 0, 1500 * time.Millisecond, 20_000, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.NewSim(1)
			spec := tc.spec
			switch {
			case tc.loss > 0:
				spec.LossFn = func(netsim.Time, *netsim.Packet) bool { return sim.Rand().Float64() < tc.loss }
			case tc.bursts:
				spec.LossFn = func(now netsim.Time, _ *netsim.Packet) bool {
					return now >= time.Second && now%time.Second < 20*time.Millisecond && sim.Rand().Float64() < 0.2
				}
			}
			if tc.warmup == 0 {
				pkts := make([]*netsim.Packet, 4000)
				for i := range pkts {
					pkts[i] = sim.NewPacket()
				}
				for _, p := range pkts {
					sim.FreePacket(p)
				}
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
			var before, after runtime.MemStats
			f.Start()
			sim.RunUntil(tc.warmup)
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
			if end.FastRecoveries-st.FastRecoveries < tc.minFR {
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
