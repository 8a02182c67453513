// Congestion reproduces the Figure 8 scenario: the five congestion-control
// algorithms available on the study's Raspberry Pis (BBR, CUBIC, Reno, Veno,
// Vegas) each bulk-download over a Starlink bent pipe and over low-loss
// campus WiFi; results are normalised by the UDP burst capacity of each
// link. BBR's loss-blindness makes it the clear winner on Starlink's
// handover-lossy link, yet even it falls well short of the UDP capacity.
package main

import (
	"fmt"
	"log"
	"time"

	"starlinkview/internal/cc"
	"starlinkview/internal/core"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
)

func buildEnv(kind ispnet.Kind, constellation *orbit.Constellation, epoch time.Time, seed int64) (*netsim.Sim, *ispnet.Built) {
	cfg := ispnet.Config{
		Kind: kind, City: ispnet.Wiltshire, Server: ispnet.LondonDC,
		Short: true, Seed: seed,
	}
	if kind == ispnet.Starlink {
		cfg.Constellation = constellation
		cfg.Epoch = epoch
	} else {
		cfg.City = ispnet.London
	}
	built, err := ispnet.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return netsim.NewSim(seed), built
}

func main() {
	epoch := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	constellation, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		log.Fatal(err)
	}
	const dur = 30 * time.Second
	envs := []struct {
		name string
		kind ispnet.Kind
	}{
		{"starlink", ispnet.Starlink},
		{"campus wifi", ispnet.Broadband},
	}

	for _, env := range envs {
		sim, built := buildEnv(env.kind, constellation, epoch, 2000)
		udp, err := measure.IperfUDP(sim, built.Path, 2e9, dur, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: UDP burst capacity %.1f Mbps\n", env.name, udp.ThroughputBps/1e6)
		for _, algo := range cc.Names() {
			sim, built := buildEnv(env.kind, constellation, epoch, 2000)
			res, err := measure.IperfTCPReverse(sim, built.Path, algo, dur)
			if err != nil {
				log.Fatal(err)
			}
			norm := res.ThroughputBps / udp.ThroughputBps
			bar := ""
			for i := 0; i < int(norm*40); i++ {
				bar += "#"
			}
			fmt.Printf("  %-6s %6.1f Mbps  %.2f  %s\n", algo, res.ThroughputBps/1e6, norm, bar)
		}
		fmt.Println()
	}
	fmt.Println("paper (Figure 8): on Starlink BBR reaches about half the UDP capacity and the")
	fmt.Printf("rest trail it badly; on campus WiFi every algorithm exceeds ~%g of capacity.\n",
		core.Paper("Figure 8", "all", "WiFi normalised throughput"))
}
