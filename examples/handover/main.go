// Handover reproduces the Figure 7 scenario: a 12-minute window of
// per-second UDP loss at a UK Starlink terminal plotted (in ASCII) against
// the serving satellite's identity and distance. Loss clumps appear exactly
// where the serving satellite drops out of line of sight and the terminal
// reacquires — the paper's central claim about Starlink's packet loss.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"starlinkview/internal/geo"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
)

func main() {
	epoch := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	city := ispnet.Wiltshire
	constellation, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		log.Fatal(err)
	}
	built, err := ispnet.Build(ispnet.Config{
		Kind: ispnet.Starlink, City: city, Server: ispnet.LondonDC,
		Constellation: constellation, Epoch: epoch, Short: true, Seed: 830,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim := netsim.NewSim(830)
	path, pipe := built.Path, built.Pipe

	const seconds = 720
	const pps = 100
	received := make([]int, seconds)
	client, server := path.Client(), path.Server()
	server.RegisterLocal(39000, netsim.HandlerFunc(func(s *netsim.Sim, p *netsim.Packet) {
		if sec := int(p.SentAt / time.Second); sec >= 0 && sec < seconds {
			received[sec]++
		}
		s.FreePacket(p)
	}))
	// One paced probe every 10 ms: a single queue entry for the whole train.
	sim.Train(0, time.Second/pps, seconds*pps, func(int) {
		p := sim.NewPacket()
		*p = netsim.Packet{
			ID: sim.NextPacketID(), Size: 1250, TTL: 64,
			Src: client.Name, Dst: server.Name, DstPort: 39000,
			SentAt: sim.Now(),
		}
		client.Handle(sim, p)
	})

	serving := make([]string, seconds)
	for sec := 0; sec < seconds; sec++ {
		sim.RunUntil(time.Duration(sec+1) * time.Second)
		if st := pipe.StateAt(sim.Now()); st.Serving != nil {
			serving[sec] = st.Serving.Name
		}
	}
	sim.RunUntil(seconds*time.Second + 3*time.Second)

	fmt.Println("per-10s loss strip ('.' <1%, '+' 1-5%, '#' >5%) with serving-satellite changes:")
	prev := ""
	var strip strings.Builder
	for sec := 0; sec < seconds; sec++ {
		if serving[sec] != prev {
			if strip.Len() > 0 {
				fmt.Printf("  %s\n", strip.String())
				strip.Reset()
			}
			dist := distanceTo(constellation, serving[sec], city.Loc, epoch.Add(time.Duration(sec)*time.Second))
			fmt.Printf("t=%4ds -> %-15s (%.0f km)\n", sec, orEmpty(serving[sec]), dist)
			prev = serving[sec]
		}
		if sec%10 == 9 {
			lost := 0
			for s := sec - 9; s <= sec; s++ {
				lost += pps - received[s]
			}
			pct := 100 * float64(lost) / float64(10*pps)
			switch {
			case pct < 1:
				strip.WriteByte('.')
			case pct < 5:
				strip.WriteByte('+')
			default:
				strip.WriteByte('#')
			}
		}
	}
	if strip.Len() > 0 {
		fmt.Printf("  %s\n", strip.String())
	}

	total, hard := pipe.HandoverCount()
	fmt.Printf("\nhandovers: %d total, %d forced by line-of-sight loss\n", total, hard)
	fmt.Println("the paper's Figure 7 ties each loss clump to a satellite going out of sight;")
	fmt.Println("the '#' marks above should cluster right after the '->' transitions.")
}

func distanceTo(c *orbit.Constellation, name string, obs geo.LatLon, at time.Time) float64 {
	for _, s := range c.Sats {
		if s.Name == name {
			return s.Look(obs, at).RangeKm
		}
	}
	return 0
}

func orEmpty(s string) string {
	if s == "" {
		return "(searching)"
	}
	return s
}
