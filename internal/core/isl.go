package core

import (
	"fmt"
	"io"
	"time"

	"starlinkview/internal/geo"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
)

// The paper's Section 4 takeaway: "connections between geographically
// distant end points may not see the full benefits of Starlink until
// Inter-satellite Links (ISLs) become the norm, offsetting the additional
// latency of the satellite link with lower delays in crossing the Atlantic
// via ISLs". This file implements that extension as an experiment: the
// projected RTT of an ISL-routed path (vacuum-speed laser links along the
// constellation shell) against the measured bent-pipe + terrestrial fibre
// path of today's architecture.

// ISLRow compares one city pair.
type ISLRow struct {
	From, To string
	// BentPipeRTTms is the measured RTT over today's architecture: bent
	// pipe to the local PoP, then terrestrial fibre.
	BentPipeRTTms float64
	// ISLRTTms is the projected RTT over inter-satellite laser links.
	ISLRTTms float64
	// FibreFloorms is the pure terrestrial-fibre propagation RTT, the
	// baseline both satellite paths compete with.
	FibreFloorms float64
}

// islRTT estimates the round trip over ISLs: up to the shell, along a
// great-circle laser route at vacuum light speed with a detour factor for
// the grid topology, back down, plus processing — doubled.
func islRTT(a, b geo.LatLon, altKm float64) time.Duration {
	surface := geo.HaversineKm(a, b)
	// The laser route follows the shell: scale the surface arc to shell
	// radius and apply a grid-detour factor (hop-by-hop routing does not
	// follow the exact great circle).
	const detour = 1.15
	shellArc := surface * (geo.EarthRadiusKm + altKm) / geo.EarthRadiusKm * detour
	upDown := 2 * altKm * 1.25 // slant, not zenith, on average
	propMs := geo.PropagationDelayMs(shellArc + upDown)
	const processingMs = 12 // terminal + per-hop switching + gateway
	return time.Duration(2 * (propMs + processingMs) * float64(time.Millisecond))
}

// ExtensionISL projects the ISL advantage on intercontinental paths and
// measures today's bent-pipe RTT for comparison. It returns one row per
// studied city pair.
func (s *Study) ExtensionISL() ([]ISLRow, error) {
	pairs := []struct {
		city   ispnet.City
		server ispnet.ServerSite
	}{
		{ispnet.London, ispnet.NVirginiaDC},
		{ispnet.Sydney, ispnet.NVirginiaDC},
		{ispnet.Barcelona, ispnet.IowaDC},
	}
	out := make([]ISLRow, len(pairs))
	err := s.runIndexed(len(pairs), func(i int) error {
		p := pairs[i]
		// Measure today's architecture with pings over the simulated path.
		sim := s.newSim(s.cfg.Seed + int64(2600+i))
		defer s.releaseSim(sim)
		built, err := ispnet.Build(ispnet.Config{
			Kind: ispnet.Starlink, City: p.city, Server: p.server,
			Constellation: s.Constellation, Epoch: s.cfg.Epoch,
			Registry: s.cfg.Registry, Trace: s.cfg.Trace,
			Short: true, Seed: s.cfg.Seed + int64(2600+i),
		})
		if err != nil {
			return err
		}
		ping, err := measure.Ping(sim, built.Path, 12, 300*time.Millisecond)
		if err != nil {
			return err
		}
		if ping.Received == 0 {
			return fmt.Errorf("core: no ping replies on %s path", p.city.Name)
		}

		out[i] = ISLRow{
			From:          p.city.Name,
			To:            p.server.Name,
			BentPipeRTTms: float64(ping.AvgRTT()) / float64(time.Millisecond),
			ISLRTTms:      float64(islRTT(p.city.Loc, p.server.Loc, 550)) / float64(time.Millisecond),
			FibreFloorms:  float64(2*ispnet.FibreDelay(p.city.Loc, p.server.Loc)) / float64(time.Millisecond),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReportExtensionISL renders the comparison.
func ReportExtensionISL(w io.Writer, rows []ISLRow) {
	fmt.Fprintln(w, "Extension: projected ISL routing vs today's bent pipe + fibre (RTT, ms)")
	for _, r := range rows {
		verdict := "bent pipe + fibre still wins"
		if r.ISLRTTms < r.BentPipeRTTms {
			verdict = "ISLs win"
		}
		fmt.Fprintf(w, "  %-10s -> %-14s bent-pipe %6.1f   ISL %6.1f   fibre floor %6.1f   (%s)\n",
			r.From, r.To, r.BentPipeRTTms, r.ISLRTTms, r.FibreFloorms, verdict)
	}
}
