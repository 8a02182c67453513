package core

import (
	"fmt"
	"time"

	"starlinkview/internal/cc"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
)

// Fig8Row is one congestion-control algorithm's normalised throughput on
// the two access networks.
type Fig8Row struct {
	Algorithm string
	// Starlink and WiFi are download throughput normalised by each link's
	// UDP-burst capacity.
	Starlink float64
	WiFi     float64
}

// fig8Env is one measurement environment for the CC stress test. build
// takes its simulator from newSim; the caller hands it back with releaseSim.
type fig8Env struct {
	build func(seed int64) (*netsim.Sim, *ispnet.Built, error)
}

// fig8EnvNames fixes the environment order so parallel task lists are
// index-addressable.
func fig8EnvNames() []string { return []string{"starlink", "wifi"} }

func (s *Study) fig8Envs() map[string]fig8Env {
	return map[string]fig8Env{
		"starlink": {build: func(seed int64) (*netsim.Sim, *ispnet.Built, error) {
			sim := s.newSim(seed)
			b, err := ispnet.Build(ispnet.Config{
				Kind: ispnet.Starlink, City: ispnet.Wiltshire, Server: ispnet.LondonDC,
				Constellation: s.Constellation, Epoch: s.cfg.Epoch, Short: true, Seed: seed,
				Registry: s.cfg.Registry, Trace: s.cfg.Trace,
			})
			return sim, b, err
		}},
		"wifi": {build: func(seed int64) (*netsim.Sim, *ispnet.Built, error) {
			sim := s.newSim(seed)
			b, err := ispnet.Build(ispnet.Config{
				Kind: ispnet.Broadband, City: ispnet.London, Server: ispnet.LondonDC,
				Short: true, Seed: seed,
				Registry: s.cfg.Registry, Trace: s.cfg.Trace,
			})
			return sim, b, err
		}},
	}
}

// Figure8 reproduces the congestion-control stress test: each of the five
// algorithms bulk-downloads for a stretch on both environments; results are
// normalised by the UDP burst capacity measured on a fresh instance of the
// same link.
func (s *Study) Figure8() ([]Fig8Row, error) {
	dur := s.scaledDur(60*time.Second, 12*time.Second)
	envNames := fig8EnvNames()
	envs := s.fig8Envs()
	algos := cc.Names()

	// Stage 1: UDP capacity baseline per environment, on its own link
	// instance (same seed, so identical handover/weather history). The TCP
	// runs all normalise by these, so they form a barrier.
	baselines := make([]float64, len(envNames))
	err := s.runIndexed(len(envNames), func(ei int) error {
		sim, built, err := envs[envNames[ei]].build(s.cfg.Seed + 2000)
		if err != nil {
			return err
		}
		defer s.releaseSim(sim)
		udp, err := measure.IperfUDP(sim, built.Path, 2e9, dur, true)
		if err != nil {
			return err
		}
		if udp.ThroughputBps <= 0 {
			return fmt.Errorf("core: UDP baseline on %s is zero", envNames[ei])
		}
		baselines[ei] = udp.ThroughputBps
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: every (environment, algorithm) pair is an independent
	// simulation, so the whole cross product fans out at once.
	norms := make([]float64, len(envNames)*len(algos))
	err = s.runIndexed(len(norms), func(ti int) error {
		ei, ai := ti/len(algos), ti%len(algos)
		sim, built, err := envs[envNames[ei]].build(s.cfg.Seed + 2000)
		if err != nil {
			return err
		}
		defer s.releaseSim(sim)
		res, err := measure.IperfTCPReverse(sim, built.Path, algos[ai], dur)
		if err != nil {
			return err
		}
		norms[ti] = res.ThroughputBps / baselines[ei]
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Fig8Row, len(algos))
	for ai, algo := range algos {
		out[ai] = Fig8Row{
			Algorithm: algo,
			Starlink:  norms[0*len(algos)+ai],
			WiFi:      norms[1*len(algos)+ai],
		}
	}
	return out, nil
}

// AblationLossModel compares CC throughput under the bent pipe's bursty
// handover loss vs independent random loss of the same mean rate — the
// design choice that drives the Figure 8 gap. It returns normalised
// throughput per algorithm under each model.
type AblationLossRow struct {
	Algorithm string
	Bursty    float64 // goodput under handover-burst loss, Mbps
	IID       float64 // goodput under i.i.d. loss of equal mean, Mbps
}

// AblationLossModel runs the comparison.
func (s *Study) AblationLossModel() ([]AblationLossRow, error) {
	dur := s.scaledDur(45*time.Second, 10*time.Second)

	// First, measure the bursty link's mean loss rate with a UDP blast.
	sim := s.newSim(s.cfg.Seed + 2100)
	built, err := ispnet.Build(ispnet.Config{
		Kind: ispnet.Starlink, City: ispnet.Wiltshire, Server: ispnet.LondonDC,
		Constellation: s.Constellation, Epoch: s.cfg.Epoch, Short: true,
		Registry: s.cfg.Registry, Trace: s.cfg.Trace,
		Seed: s.cfg.Seed + 2100,
	})
	if err != nil {
		return nil, err
	}
	// The mean-loss measurement needs a window long enough to include the
	// handover cycle several times over, or a lucky quiet stretch would
	// understate the i.i.d. equivalent.
	lossWindow := 3 * dur
	if lossWindow < 150*time.Second {
		lossWindow = 150 * time.Second
	}
	// A modest probing rate keeps the packet count tractable; the loss-rate
	// estimate only needs enough samples per burst.
	udp, err := measure.IperfUDP(sim, built.Path, 20e6, lossWindow, true)
	s.releaseSim(sim)
	if err != nil {
		return nil, err
	}
	meanLoss := udp.LossPct / 100

	algos := cc.Names()
	out := make([]AblationLossRow, len(algos))
	err = s.runIndexed(len(algos), func(ai int) error {
		algo := algos[ai]
		row := AblationLossRow{Algorithm: algo}

		// Bursty: the real bent pipe.
		sim, built, err := s.fig8Envs()["starlink"].build(s.cfg.Seed + 2100)
		if err != nil {
			return err
		}
		res, err := measure.IperfTCPReverse(sim, built.Path, algo, dur)
		s.releaseSim(sim)
		if err != nil {
			return err
		}
		row.Bursty = res.ThroughputBps / 1e6

		// IID: a static link with the same capacity/delay and i.i.d. loss
		// at the measured mean rate.
		iidSim := s.newSim(s.cfg.Seed + 2200)
		defer s.releaseSim(iidSim)
		iid, err := buildIIDPath(iidSim, meanLoss, s.cfg.Seed+2200)
		if err != nil {
			return err
		}
		res, err = measure.IperfTCPReverse(iidSim, iid, algo, dur)
		if err != nil {
			return err
		}
		row.IID = res.ThroughputBps / 1e6
		out[ai] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// buildIIDPath creates a 2-hop path that mimics the bent pipe's averages
// with independent loss.
func buildIIDPath(sim *netsim.Sim, lossProb float64, seed int64) (*netsim.Path, error) {
	client := netsim.NewNode("iid-client", "")
	server := netsim.NewNode("iid-server", "")
	rng := sim.Rand()
	_ = seed
	lossFn := func(netsim.Time, *netsim.Packet) bool { return rng.Float64() < lossProb }
	spec := func(rate float64) netsim.LinkSpec {
		return netsim.LinkSpec{
			RateBps:   rate,
			Delay:     28 * time.Millisecond,
			QueueByte: int(rate / 8 * 0.1),
			LossFn:    lossFn,
		}
	}
	return netsim.NewPath([]*netsim.Node{client, server},
		[]netsim.LinkSpec{spec(25e6)}, []netsim.LinkSpec{spec(180e6)})
}

// AblationHandoverRow compares serving-satellite selection policies.
type AblationHandoverRow struct {
	Policy        string
	Handovers     int
	HardHandovers int
	MeanLossPct   float64
}

// AblationHandoverPolicy measures, over an hour, how the selection policy
// changes handover counts and observed UDP loss.
func (s *Study) AblationHandoverPolicy() ([]AblationHandoverRow, error) {
	window := s.scaledDur(30*time.Minute, 10*time.Minute)
	policies := []orbit.SelectionPolicy{orbit.HighestElevation, orbit.LongestRemainingVisibility}
	out := make([]AblationHandoverRow, len(policies))
	err := s.runIndexed(len(policies), func(pi int) error {
		policy := policies[pi]
		sim := s.newSim(s.cfg.Seed + 2300)
		defer s.releaseSim(sim)
		built, err := ispnet.Build(ispnet.Config{
			Kind: ispnet.Starlink, City: ispnet.Wiltshire, Server: ispnet.LondonDC,
			Constellation: s.Constellation, Epoch: s.cfg.Epoch, Short: true,
			Registry: s.cfg.Registry, Trace: s.cfg.Trace,
			Policy: policy, Seed: s.cfg.Seed + 2300,
		})
		if err != nil {
			return err
		}
		udp, err := measure.IperfUDP(sim, built.Path, 8e6, window, true)
		if err != nil {
			return err
		}
		total, hard := built.Pipe.HandoverCount()
		out[pi] = AblationHandoverRow{
			Policy:        policy.String(),
			Handovers:     total,
			HardHandovers: hard,
			MeanLossPct:   udp.LossPct,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
