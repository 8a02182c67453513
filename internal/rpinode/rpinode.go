// Package rpinode models the study's volunteer measurement nodes: a
// Raspberry Pi wired to the Starlink router (Figure 2), flashed with
// speedtest/iperf3/mtr tooling, running cron jobs — a speedtest every five
// minutes and periodic iperf runs against a VM in the closest Google Cloud
// region — and exposing the local dishy status API.
//
// Each node owns one simulation with two paths to its server: the full
// hop-by-hop path for traceroute work and a collapsed path (same end-to-end
// delay) for packet-level throughput tests.
package rpinode

import (
	"fmt"
	"time"

	"starlinkview/internal/dishy"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/obs"
	"starlinkview/internal/orbit"
	"starlinkview/internal/trace"
	"starlinkview/internal/weather"
)

// Config assembles a volunteer node.
type Config struct {
	City          ispnet.City
	Constellation *orbit.Constellation
	Epoch         time.Time
	// Server overrides the closest-Google-Cloud default.
	Server *ispnet.ServerSite
	// WithWeather adds the city's climatology to the bent pipe.
	WithWeather bool
	Policy      orbit.SelectionPolicy
	Seed        int64
	// Registry, when set, meters both of the node's paths (per-link packet
	// counters, bent-pipe handover/outage/loss series). Nil = unmetered.
	Registry *obs.Registry
	// Trace, when set, receives span events from both paths (handovers,
	// outages, loss windows, per-link drops). Nil = untraced.
	Trace *trace.Span
	// Sim, when set, is the node's simulation; it must be in the state
	// netsim.NewSim(Seed) returns (a renewed one is). Nil = NewSim(Seed).
	Sim *netsim.Sim
}

// IperfSample is one scheduled iperf measurement (Figures 6a/6b).
type IperfSample struct {
	At       time.Duration
	Wall     time.Time
	DownBps  float64
	UpBps    float64
	DownLoss float64 // TCP retransmit fraction, percent
}

// UDPSample is one scheduled UDP loss measurement (Figure 6c).
type UDPSample struct {
	At      time.Duration
	Wall    time.Time
	LossPct float64
	RateBps float64
}

// SpeedSample is one cron speedtest.
type SpeedSample struct {
	At   time.Duration
	Wall time.Time
	Res  measure.SpeedtestResult
}

// Node is a running volunteer measurement node.
type Node struct {
	City   ispnet.City
	Server ispnet.ServerSite
	Epoch  time.Time

	Sim   *netsim.Sim
	Full  *ispnet.Built // full hop-by-hop path
	Short *ispnet.Built // collapsed path for throughput tests

	iperf   []IperfSample
	udp     []UDPSample
	speeds  []SpeedSample
	history []dishy.HistorySample
}

// New builds the node and both of its paths.
func New(cfg Config) (*Node, error) {
	if cfg.Constellation == nil {
		return nil, fmt.Errorf("rpinode: constellation is required")
	}
	if cfg.Epoch.IsZero() {
		return nil, fmt.Errorf("rpinode: epoch is required")
	}
	server := ispnet.ClosestDC(cfg.City)
	if cfg.Server != nil {
		server = *cfg.Server
	}
	sim := cfg.Sim
	if sim == nil {
		sim = netsim.NewSim(cfg.Seed)
	}

	var wx *weather.Generator
	if cfg.WithWeather {
		g, err := weather.NewGenerator(cfg.City.Climatology, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		wx = g
	}
	base := ispnet.Config{
		Kind: ispnet.Starlink, City: cfg.City, Server: server,
		Constellation: cfg.Constellation, Policy: cfg.Policy,
		Weather: wx, Epoch: cfg.Epoch, Seed: cfg.Seed,
		Registry: cfg.Registry, Trace: cfg.Trace,
	}
	full, err := ispnet.Build(base)
	if err != nil {
		return nil, err
	}
	short := base
	short.Short = true
	short.Seed = cfg.Seed + 1000
	if cfg.WithWeather {
		// The short path needs its own generator (generators are stateful
		// and must be advanced monotonically by one consumer).
		g, err := weather.NewGenerator(cfg.City.Climatology, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		short.Weather = g
	}
	shortBuilt, err := ispnet.Build(short)
	if err != nil {
		return nil, err
	}
	return &Node{
		City:   cfg.City,
		Server: server,
		Epoch:  cfg.Epoch,
		Sim:    sim,
		Full:   full,
		Short:  shortBuilt,
	}, nil
}

// Wall converts node simulation time to wall-clock time.
func (n *Node) Wall(t time.Duration) time.Time { return n.Epoch.Add(t) }

// IperfSamples returns the collected iperf measurements.
func (n *Node) IperfSamples() []IperfSample { return n.iperf }

// UDPSamples returns the collected UDP loss measurements.
func (n *Node) UDPSamples() []UDPSample { return n.udp }

// SpeedSamples returns the collected speedtests.
func (n *Node) SpeedSamples() []SpeedSample { return n.speeds }

// recordHistory snapshots the terminal telemetry, as the dish's own ring
// buffer does.
func (n *Node) recordHistory() {
	st := n.Short.Pipe.StateAt(n.Sim.Now())
	n.history = append(n.history, dishy.HistorySample{
		AtUnix:           n.Wall(n.Sim.Now()).Unix(),
		PopPingLatencyMs: 2 * float64(st.OneWayDelay+st.JitterMean/2) / float64(time.Millisecond),
		PopPingDropRate:  st.LossProb,
		DownlinkBps:      st.DownCapacityBps,
		UplinkBps:        st.UpCapacityBps,
	})
}

// RunIperfOnce runs a download and an upload TCP iperf of the given
// durations on the short path and records the sample.
func (n *Node) RunIperfOnce(algo string, downDur, upDur time.Duration) (IperfSample, error) {
	at := n.Sim.Now()
	n.recordHistory()
	down, err := measure.IperfTCPReverse(n.Sim, n.Short.Path, algo, downDur)
	if err != nil {
		return IperfSample{}, err
	}
	up, err := measure.IperfTCP(n.Sim, n.Short.Path, algo, upDur)
	if err != nil {
		return IperfSample{}, err
	}
	s := IperfSample{
		At:       at,
		Wall:     n.Wall(at),
		DownBps:  down.ThroughputBps,
		UpBps:    up.ThroughputBps,
		DownLoss: down.LossPct,
	}
	n.iperf = append(n.iperf, s)
	return s, nil
}

// RunUDPOnce runs a downlink UDP blast at rateBps and records the loss.
func (n *Node) RunUDPOnce(rateBps float64, dur time.Duration) (UDPSample, error) {
	at := n.Sim.Now()
	n.recordHistory()
	res, err := measure.IperfUDP(n.Sim, n.Short.Path, rateBps, dur, true)
	if err != nil {
		return UDPSample{}, err
	}
	s := UDPSample{At: at, Wall: n.Wall(at), LossPct: res.LossPct, RateBps: rateBps}
	n.udp = append(n.udp, s)
	return s, nil
}

// RunSpeedtestOnce runs the Librespeed-style speedtest.
func (n *Node) RunSpeedtestOnce(opts measure.SpeedtestOptions) (SpeedSample, error) {
	at := n.Sim.Now()
	n.recordHistory()
	res, err := measure.Speedtest(n.Sim, n.Short.Path, opts)
	if err != nil {
		return SpeedSample{}, err
	}
	s := SpeedSample{At: at, Wall: n.Wall(at), Res: res}
	n.speeds = append(n.speeds, s)
	return s, nil
}

// Traceroute runs a traceroute on the full path.
func (n *Node) Traceroute(opts measure.TracerouteOptions) ([]measure.Hop, error) {
	return measure.Traceroute(n.Sim, n.Full.Path, opts)
}

// MaxMinQueueing estimates the queueing delay at the bent pipe (TTL 1) and
// across the whole path from the same traceroute sweeps, Table 2 style.
func (n *Node) MaxMinQueueing(runs, probes int) (wireless, whole measure.QueueingDelay, err error) {
	return measure.MaxMinBoth(n.Sim, n.Full.Path, runs, probes)
}

// Schedule configures the node's cron jobs.
type Schedule struct {
	// Total is how long the node runs.
	Total time.Duration
	// IperfEvery triggers RunIperfOnce (the paper's half-hourly cadence);
	// zero disables.
	IperfEvery time.Duration
	// IperfDur is the per-direction iperf duration.
	IperfDur time.Duration
	// UDPEvery triggers RunUDPOnce; zero disables.
	UDPEvery time.Duration
	// UDPRateBps and UDPDur parameterise the UDP blasts.
	UDPRateBps float64
	UDPDur     time.Duration
	// SpeedtestEvery triggers RunSpeedtestOnce (the paper's five-minute
	// cron job); zero disables.
	SpeedtestEvery time.Duration
	// SpeedtestPhase is the per-direction speedtest duration.
	SpeedtestPhase time.Duration
	// Algorithm for TCP tests (default cubic).
	Algorithm string
}

// RunSchedule executes the cron jobs over simulated time.
func (n *Node) RunSchedule(s Schedule) error {
	if s.Total <= 0 {
		return fmt.Errorf("rpinode: schedule needs a positive total duration")
	}
	if s.Algorithm == "" {
		s.Algorithm = "cubic"
	}
	if s.IperfDur == 0 {
		s.IperfDur = 5 * time.Second
	}
	if s.UDPDur == 0 {
		s.UDPDur = 5 * time.Second
	}
	if s.UDPRateBps == 0 {
		s.UDPRateBps = 100e6
	}
	if s.SpeedtestPhase == 0 {
		s.SpeedtestPhase = 4 * time.Second
	}

	start := n.Sim.Now()
	end := start + s.Total
	nextIperf := start
	nextUDP := start
	nextSpeed := start
	if s.IperfEvery <= 0 {
		nextIperf = end + 1
	}
	if s.UDPEvery <= 0 {
		nextUDP = end + 1
	}
	if s.SpeedtestEvery <= 0 {
		nextSpeed = end + 1
	}

	for {
		next := nextIperf
		if nextUDP < next {
			next = nextUDP
		}
		if nextSpeed < next {
			next = nextSpeed
		}
		if next > end {
			break
		}
		if n.Sim.Now() < next {
			n.Sim.RunUntil(next)
		}
		switch next {
		case nextIperf:
			if _, err := n.RunIperfOnce(s.Algorithm, s.IperfDur, s.IperfDur/2); err != nil {
				return err
			}
			nextIperf += s.IperfEvery
		case nextUDP:
			if _, err := n.RunUDPOnce(s.UDPRateBps, s.UDPDur); err != nil {
				return err
			}
			nextUDP += s.UDPEvery
		default:
			if _, err := n.RunSpeedtestOnce(measure.SpeedtestOptions{PhaseDuration: s.SpeedtestPhase}); err != nil {
				return err
			}
			nextSpeed += s.SpeedtestEvery
		}
	}
	n.Sim.RunUntil(end)
	return nil
}

// DishyStatus builds a dishy API status snapshot from the node's bent pipe.
func (n *Node) DishyStatus() (dishy.Status, error) {
	if n.Short.Pipe == nil {
		return dishy.Status{}, fmt.Errorf("rpinode: node has no bent pipe")
	}
	st := n.Short.Pipe.StateAt(n.Sim.Now())
	out := dishy.Status{
		UptimeS:                    int64(n.Sim.Now() / time.Second),
		PopPingLatencyMs:           2 * float64(st.OneWayDelay+st.JitterMean/2) / float64(time.Millisecond),
		PopPingDropRate:            st.LossProb,
		DownlinkThroughputBps:      st.DownCapacityBps,
		UplinkThroughputBps:        st.UpCapacityBps,
		SNR:                        9.5 - st.AttenuationDB,
		FractionObstructed:         0.001,
		CurrentlyObstructed:        st.Outage,
		SecondsToFirstNonemptySlot: float64(bentpipeSlotRemainder(n.Sim.Now())) / float64(time.Second),
	}
	if st.Serving != nil {
		out.ConnectedSatellite = st.Serving.Name
	}
	if st.AttenuationDB > 2 {
		out.Alerts = append(out.Alerts, "rain_fade")
	}
	if st.Outage {
		out.Alerts = append(out.Alerts, "searching")
	}
	return out, nil
}

// bentpipeSlotRemainder returns time until the next 15s reconfiguration.
func bentpipeSlotRemainder(t time.Duration) time.Duration {
	const slot = 15 * time.Second
	return slot - (t % slot)
}

// DishyHistory returns the telemetry snapshots recorded so far.
func (n *Node) DishyHistory() (dishy.History, error) {
	return dishy.History{Samples: append([]dishy.HistorySample(nil), n.history...)}, nil
}

// ServeDishy starts a dishy API server backed by this node and returns its
// address. The caller must Close the returned server.
func (n *Node) ServeDishy(addr string) (*dishy.Server, string, error) {
	srv, err := dishy.NewServer(dishy.StatusFunc(n.DishyStatus))
	if err != nil {
		return nil, "", err
	}
	srv.SetHistorySource(n.DishyHistory)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}
