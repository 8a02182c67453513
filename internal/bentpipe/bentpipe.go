// Package bentpipe models the Starlink access link as the paper describes
// it: terminal ("dishy") -> overhead satellite -> gateway/PoP on the ground,
// with no inter-satellite links. Everything the paper attributes to this
// "bent pipe" emerges from the model:
//
//   - propagation delay follows the live slant ranges to the serving
//     satellite (from the orbit package), plus gateway processing and a
//     load-dependent scheduling jitter (Table 2's queueing delays);
//   - losses clump around handovers, and especially around *forced*
//     handovers where the serving satellite fell below the 25-degree
//     elevation mask (Figure 7);
//   - capacity breathes with a diurnal cell-utilisation curve and the
//     city's subscriber density (Figures 6a/6b) and with weather-induced
//     rain fade (Figure 4).
//
// The model exposes both a packet-level interface (netsim.LinkSpec hooks,
// used by the iperf/speedtest/congestion experiments) and an analytic
// snapshot interface (StateAt, used by the browser-extension page-load
// model, which simulates six months of browsing and cannot afford
// per-packet simulation).
package bentpipe

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"starlinkview/internal/geo"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
	"starlinkview/internal/trace"
	"starlinkview/internal/weather"
)

// Defaults shared by all Starlink terminals in the study.
const (
	// DefaultHandoverInterval is the period of Starlink's 15-second
	// reconfiguration grid. Each terminal runs the grid on its own random
	// phase, drawn the first time the model advances (DESIGN §7, slot-grid
	// phase offset).
	DefaultHandoverInterval = 15 * time.Second
	// softHandoverLoss is the loss probability during a planned slot
	// reassignment burst.
	softHandoverLoss = 0.45
	// softHandoverProb is the chance a reconfiguration slot reassigns the
	// terminal (and disturbs it briefly) even though the serving satellite
	// is still usable.
	softHandoverProb = 0.12
	// outageLoss is the loss probability while the terminal has no usable
	// satellite and is searching.
	outageLoss = 0.93
	// spikeProb is the chance a line-of-sight loss starts with a
	// near-total outage spike before the degraded window.
	spikeProb = 0.35
	// baseLoss is the residual random loss on the wireless link.
	baseLoss = 0.0001
	// gatewayProcessing is the fixed one-way processing/scheduling delay
	// through the Starlink air interface and gateway.
	gatewayProcessing = 9 * time.Millisecond
	// stateRefresh bounds how often geometry is recomputed.
	stateRefresh = time.Second
	// stickyHysteresisDeg keeps the serving satellite until it sinks this
	// far above the elevation mask. The paper's Figure 7 ties every loss
	// clump to the serving satellite leaving line of sight, implying the
	// terminal rides its satellite down to the mask rather than hopping to
	// the momentary best.
	stickyHysteresisDeg = 1.0
)

// DiurnalLoad models cell utilisation over the local day.
type DiurnalLoad struct {
	// Base is the overnight utilisation floor (0..1).
	Base float64
	// Peak is the evening-peak utilisation (0..1).
	Peak float64
	// PeakHour is the local hour (0..24) of maximum utilisation; the paper
	// observes minima at 00:00-06:00 and maxima at 18:00-24:00 local.
	PeakHour float64
	// UTCOffsetHours converts simulation wall time to local time.
	UTCOffsetHours float64
	// Subscribers scales utilisation for cell crowding: 1 is nominal; the
	// paper speculates US cells are more subscribed than EU ones.
	Subscribers float64
}

// demandShape is the residential traffic demand over the local day, anchored
// with its peak at hour 21: deep overnight trough (00-06, the paper's
// highest-throughput window), daytime plateau, steep evening peak (18-24,
// the paper's lowest-throughput window).
var demandShape = [24]float64{
	0.35, 0.25, 0.18, 0.12, 0.10, 0.10, // 00-05
	0.15, 0.25, 0.35, 0.45, 0.50, 0.55, // 06-11
	0.55, 0.55, 0.55, 0.55, 0.60, 0.70, // 12-17
	0.80, 0.90, 0.95, 1.00, 0.90, 0.60, // 18-23
}

// UtilizationAt returns the cell utilisation (clamped to [0, 0.95]) at the
// given wall-clock time.
func (d DiurnalLoad) UtilizationAt(wall time.Time) float64 {
	subs := d.Subscribers
	if subs == 0 {
		subs = 1
	}
	peak := d.PeakHour
	if peak == 0 {
		peak = 21
	}
	localHour := math.Mod(float64(wall.Hour())+float64(wall.Minute())/60+d.UTCOffsetHours+48, 24)
	// Shift so the configured peak hour lines up with the table's peak at 21,
	// then interpolate linearly between hourly entries.
	h := math.Mod(localHour-peak+21+24, 24)
	i := int(h)
	frac := h - float64(i)
	shape := demandShape[i]*(1-frac) + demandShape[(i+1)%24]*frac
	util := (d.Base + (d.Peak-d.Base)*shape) * subs
	if util < 0 {
		util = 0
	}
	if util > 0.95 {
		util = 0.95
	}
	return util
}

// Config assembles a terminal's bent-pipe link.
type Config struct {
	// Terminal is the dishy's location.
	Terminal geo.LatLon
	// PoP is the ground station / point of presence the bent pipe lands at.
	PoP geo.LatLon
	// Constellation provides satellite geometry; required.
	Constellation *orbit.Constellation
	// Policy selects the serving satellite.
	Policy orbit.SelectionPolicy
	// Epoch anchors simulated time zero to a wall-clock instant.
	Epoch time.Time
	// Weather, if non-nil, adds rain fade.
	Weather *weather.Generator
	// DownCapacityBps and UpCapacityBps are the idle-cell per-terminal
	// capacities (Starlink's asymmetric service).
	DownCapacityBps float64
	UpCapacityBps   float64
	// Load is the diurnal cell-utilisation model.
	Load DiurnalLoad
	// HandoverInterval overrides the 15s default if non-zero.
	HandoverInterval time.Duration
	// Seed drives the link's stochastic processes.
	Seed int64
	// Metrics, if non-nil, publishes handover/loss-window counters and
	// capacity gauges (see NewMetrics). Nil keeps the model unmetered.
	Metrics *Metrics
	// Trace, if non-nil, receives handover/outage/loss-window span events
	// stamped with the simulated time, so a starlinkbench run's trace shows
	// when the link misbehaved. The span's event cap bounds the cost over
	// long simulations.
	Trace *trace.Span
}

// LinkState is an analytic snapshot of the link at one instant.
type LinkState struct {
	At time.Duration
	// OneWayDelay is propagation + processing, excluding random jitter and
	// queueing.
	OneWayDelay time.Duration
	// JitterMean is the mean of the load-dependent scheduling jitter added
	// per packet.
	JitterMean time.Duration
	// DownCapacityBps and UpCapacityBps are the current usable capacities.
	DownCapacityBps float64
	UpCapacityBps   float64
	// LossProb is the instantaneous random-loss probability.
	LossProb float64
	// Outage reports that no serving satellite is available (or the link is
	// reacquiring after losing one).
	Outage bool
	// InHandover reports a planned handover burst in progress.
	InHandover bool
	// Serving is the current serving satellite (nil during an outage).
	Serving *orbit.Satellite
	// SlantRangeKm is the terminal-to-satellite distance.
	SlantRangeKm float64
	// Condition and AttenuationDB describe the weather's contribution.
	Condition     weather.Condition
	AttenuationDB float64
	// Utilization is the cell load in [0, 0.95].
	Utilization float64
}

// BentPipe is a live Starlink access-link model.
type BentPipe struct {
	cfg Config
	rng *rand.Rand

	// Lazily-advanced state. The model is evaluated in non-decreasing
	// simulated time, which all netsim experiments guarantee.
	state      LinkState
	validUntil time.Duration
	started    bool

	// Handover bookkeeping.
	slotStart time.Duration // start of current reconfiguration slot
	phase     time.Duration // random offset of the slot grid
	serving   *orbit.Satellite

	// Loss windows: a short near-total spike (reacquisition, soft bursts)
	// and a longer moderately-degraded window after a line-of-sight loss.
	spikeUntil    time.Duration
	spikeLoss     float64
	degradedUntil time.Duration
	degradedLoss  float64

	handoverSeen int // counters for tests/diagnostics
	hardSeen     int

	// visBuf is the reusable visibility scratch handed to ServingInto, so
	// per-tick reselections allocate nothing.
	visBuf []orbit.Visible
}

// New validates the configuration and builds the link model.
func New(cfg Config) (*BentPipe, error) {
	if cfg.Constellation == nil {
		return nil, fmt.Errorf("bentpipe: constellation is required")
	}
	if !cfg.Terminal.Valid() || !cfg.PoP.Valid() {
		return nil, fmt.Errorf("bentpipe: invalid terminal or PoP coordinates")
	}
	if cfg.DownCapacityBps <= 0 || cfg.UpCapacityBps <= 0 {
		return nil, fmt.Errorf("bentpipe: capacities must be positive")
	}
	if cfg.HandoverInterval == 0 {
		cfg.HandoverInterval = DefaultHandoverInterval
	}
	if cfg.HandoverInterval < 0 {
		return nil, fmt.Errorf("bentpipe: negative handover interval")
	}
	if cfg.Epoch.IsZero() {
		return nil, fmt.Errorf("bentpipe: epoch is required")
	}
	return &BentPipe{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// wall converts simulated time to wall-clock time.
func (b *BentPipe) wall(t time.Duration) time.Time { return b.cfg.Epoch.Add(t) }

// StateAt returns the link state at simulated time t. Calls must use
// non-decreasing t.
func (b *BentPipe) StateAt(t time.Duration) LinkState {
	b.advance(t)
	return b.state
}

// HandoverCount returns (total, hard) handovers performed so far.
func (b *BentPipe) HandoverCount() (int, int) { return b.handoverSeen, b.hardSeen }

// slotFor returns the start of the reconfiguration slot containing t on the
// terminal's phase-offset slot grid.
func (b *BentPipe) slotFor(t time.Duration) time.Duration {
	iv := b.cfg.HandoverInterval
	off := (t - b.phase) % iv
	if off < 0 {
		off += iv
	}
	return t - off
}

// advance brings the model's state up to simulated time t.
func (b *BentPipe) advance(t time.Duration) {
	if !b.started {
		b.started = true
		b.phase = time.Duration(b.rng.Int63n(int64(b.cfg.HandoverInterval)))
		b.slotStart = b.slotFor(t)
		b.acquire(t)
		b.refresh(t)
		return
	}
	if t < b.validUntil && t < b.slotStart+b.cfg.HandoverInterval {
		return
	}
	// Long idle gaps (the extension's six-month browsing timeline) skip
	// intermediate reconfiguration slots: nothing observed them, so the
	// model re-acquires at the current slot instead of replaying thousands
	// of reselections. A random draw reproduces the background chance of
	// landing inside a post-handover degraded window.
	if t >= b.slotStart+8*b.cfg.HandoverInterval {
		b.slotStart = b.slotFor(t)
		b.acquire(t)
		// Background chance of resuming inside a post-handover window.
		if b.rng.Float64() < 0.22 {
			b.startDegraded(t, time.Duration(b.rng.Int63n(int64(22*time.Second))))
		}
		if b.rng.Float64() < 0.05 {
			b.startSpike(t, time.Duration(300+b.rng.Intn(2200))*time.Millisecond, outageLoss)
		}
		b.refresh(t)
		return
	}
	// Cross reconfiguration slots one at a time.
	for t >= b.slotStart+b.cfg.HandoverInterval {
		b.slotStart += b.cfg.HandoverInterval
		b.reselect(b.slotStart)
	}
	b.refresh(t)
}

// best returns the policy's preferred satellite right now (nil if none).
func (b *BentPipe) best(t time.Duration) *orbit.Satellite {
	sel, ok := b.cfg.Constellation.ServingInto(b.cfg.Terminal, b.wall(t), b.cfg.Policy, &b.visBuf)
	if !ok {
		return nil
	}
	return sel.Sat
}

// acquire (re)acquires a serving satellite without any loss window — used
// at start-up and after long idle gaps.
func (b *BentPipe) acquire(t time.Duration) {
	b.serving = b.best(t)
	b.spikeUntil, b.degradedUntil = 0, 0
}

// servingElevation returns the serving satellite's elevation, or -90.
func (b *BentPipe) servingElevation(t time.Duration) float64 {
	if b.serving == nil {
		return -90
	}
	return b.cfg.Constellation.SatLook(b.serving, b.cfg.Terminal, b.wall(t)).ElevationDeg
}

// reselect runs at each reconfiguration slot boundary. The terminal is
// sticky: it keeps its serving satellite until line of sight is (nearly)
// lost; occasional slot reassignments disturb it briefly.
func (b *BentPipe) reselect(t time.Duration) {
	if b.servingElevation(t) < b.cfg.Constellation.MinElevationDeg+stickyHysteresisDeg {
		b.losExit(t)
		return
	}
	// Serving satellite still good: the scheduler occasionally reassigns
	// the terminal anyway (beam/cell management).
	if b.rng.Float64() < softHandoverProb {
		if next := b.best(t); next != nil && next != b.serving {
			b.handoverSeen++
			b.cfg.Metrics.softHandover()
			b.traceEvent("handover.soft", t, trace.Str("to", next.Name))
			b.serving = next
			b.startSpike(t, time.Duration(80+b.rng.Intn(170))*time.Millisecond, softHandoverLoss)
		}
	}
}

// traceEvent records one link event on the configured trace span, stamped
// with the simulated time. Nil-safe: an untraced link pays one nil test.
func (b *BentPipe) traceEvent(name string, t time.Duration, attrs ...trace.Attr) {
	if b.cfg.Trace == nil {
		return
	}
	b.cfg.Trace.Event(name, append(attrs, trace.Str("sim_t", t.String()))...)
}

// losExit handles the serving satellite dropping out of line of sight: the
// terminal reacquires, suffering a short outage spike and a longer degraded
// window — the paper's Figure 7 loss clumps.
func (b *BentPipe) losExit(t time.Duration) {
	b.handoverSeen++
	b.hardSeen++
	b.cfg.Metrics.hardHandover()
	b.traceEvent("handover.hard", t)
	b.serving = b.best(t)
	if b.serving == nil {
		// Nothing visible at all: hard outage until the next slot.
		b.cfg.Metrics.outage()
		b.traceEvent("outage", t, trace.Str("until", (t+b.cfg.HandoverInterval).String()))
		b.startSpike(t, b.cfg.HandoverInterval, outageLoss)
		return
	}
	if b.rng.Float64() < spikeProb {
		b.startSpike(t, time.Duration(500+b.rng.Intn(2000))*time.Millisecond, outageLoss)
	}
	b.startDegraded(t, time.Duration(10+b.rng.Intn(20))*time.Second)
}

// startSpike opens a short high-loss window.
func (b *BentPipe) startSpike(t, dur time.Duration, loss float64) {
	b.cfg.Metrics.spike()
	b.traceEvent("loss.spike", t, trace.Str("dur", dur.String()))
	if until := t + dur; until > b.spikeUntil {
		b.spikeUntil = until
		b.spikeLoss = loss
	}
}

// startDegraded opens a moderate-loss window with a heavy-tailed loss rate.
func (b *BentPipe) startDegraded(t, dur time.Duration) {
	b.cfg.Metrics.degraded()
	b.traceEvent("loss.degraded", t, trace.Str("dur", dur.String()))
	loss := 0.02 + b.rng.ExpFloat64()*0.06
	if loss > 0.35 {
		loss = 0.35
	}
	if until := t + dur; until > b.degradedUntil {
		b.degradedUntil = until
		b.degradedLoss = loss
	}
}

// refresh recomputes geometry, weather and load for the current instant.
func (b *BentPipe) refresh(t time.Duration) {
	wall := b.wall(t)
	st := LinkState{At: t}

	// Geometry. A serving satellite that sinks below the mask mid-slot
	// forces an immediate reacquisition (the Figure 7 mechanism). Look-ups
	// go through the constellation's position cache, so the several views
	// of the serving satellite this tick needs propagate it only once.
	servingElev := 40.0 // nominal mid-pass elevation during outages
	if b.serving != nil {
		la := b.cfg.Constellation.SatLook(b.serving, b.cfg.Terminal, wall)
		if la.ElevationDeg < b.cfg.Constellation.MinElevationDeg {
			b.losExit(t)
			if b.serving != nil {
				la = b.cfg.Constellation.SatLook(b.serving, b.cfg.Terminal, wall)
			}
		}
		if b.serving != nil {
			st.SlantRangeKm = la.RangeKm
			st.Serving = b.serving
			servingElev = la.ElevationDeg
		}
	}

	// Propagation: terminal -> satellite -> PoP, approximated with the
	// terminal slant range doubled when the PoP look angle is unavailable
	// (PoPs serve nearby cells, so ranges are comparable).
	var upLegKm, downLegKm float64
	if st.Serving != nil {
		upLegKm = st.SlantRangeKm
		popLook := geo.Look(b.cfg.PoP, b.cfg.Constellation.SatPositionECEF(st.Serving, wall))
		if popLook.ElevationDeg > 5 {
			downLegKm = popLook.RangeKm
		} else {
			downLegKm = st.SlantRangeKm
		}
	} else {
		// During outages use a nominal geometry so delay stays defined.
		upLegKm, downLegKm = 800, 800
	}
	prop := time.Duration(geo.PropagationDelayMs(upLegKm+downLegKm) * float64(time.Millisecond))
	st.OneWayDelay = prop + gatewayProcessing

	// Load.
	st.Utilization = b.cfg.Load.UtilizationAt(wall)
	// Scheduling jitter grows with cell load; the coefficient is calibrated
	// so the paper's max-min estimator recovers Table 2's queueing-delay
	// magnitudes .
	st.JitterMean = time.Duration(float64(14*time.Millisecond) * st.Utilization)

	// Weather. Besides the rain-path attenuation, actual precipitation wets
	// the radome, which field reports show costs Starlink another couple of
	// dB — the paper's "thick rain drops falling directly on the dish".
	if b.cfg.Weather != nil {
		st.Condition = b.cfg.Weather.At(t)
		// servingElev is the look angle already computed above; recomputing
		// it per tick was pure waste.
		st.AttenuationDB = st.Condition.PathAttenuationDB(servingElev)
		switch st.Condition {
		case weather.LightRain:
			st.AttenuationDB += 1.5
		case weather.ModerateRain:
			st.AttenuationDB += 4.5
		}
	}

	// Capacity: idle-cell capacity scaled by the unused cell fraction and
	// by rain fade (dB -> linear throughput factor, floored).
	fade := math.Pow(10, -st.AttenuationDB/10)
	if fade < 0.25 {
		fade = 0.25 // the modem trades rate for robustness but keeps a floor
	}
	// The per-terminal share degrades superlinearly with utilisation
	// (scheduler contention), but never collapses entirely at the clamp.
	share := math.Pow(1-0.85*st.Utilization, 1.5)
	st.DownCapacityBps = b.cfg.DownCapacityBps * share * fade
	st.UpCapacityBps = b.cfg.UpCapacityBps * share * fade

	// Loss.
	st.LossProb = baseLoss
	if st.AttenuationDB > 0.5 {
		// Fade beyond the FEC margin: residual loss grows with attenuation.
		st.LossProb += (st.AttenuationDB - 0.5) * 0.008
	}
	if t < b.degradedUntil {
		st.InHandover = true
		if b.degradedLoss > st.LossProb {
			st.LossProb = b.degradedLoss
		}
	}
	if t < b.spikeUntil {
		st.InHandover = true
		st.Outage = b.spikeLoss >= outageLoss
		if b.spikeLoss > st.LossProb {
			st.LossProb = b.spikeLoss
		}
	}
	if st.Serving == nil {
		st.Outage = true
		st.LossProb = outageLoss
	}

	b.state = st
	b.cfg.Metrics.observeState(st)
	b.validUntil = t + stateRefresh
	if b.spikeUntil > t && b.spikeUntil < b.validUntil {
		b.validUntil = b.spikeUntil // re-evaluate at spike end
	}
	if b.degradedUntil > t && b.degradedUntil < b.validUntil {
		b.validUntil = b.degradedUntil
	}
}

// jitter draws one packet's scheduling jitter.
func (b *BentPipe) jitter() time.Duration {
	if b.state.JitterMean <= 0 {
		return 0
	}
	return time.Duration(b.rng.ExpFloat64() * float64(b.state.JitterMean))
}

// DownLinkSpec returns the netsim link spec for PoP -> terminal.
func (b *BentPipe) DownLinkSpec(queueBytes int) netsim.LinkSpec {
	return netsim.LinkSpec{
		QueueByte: queueBytes,
		RateFn:    func(now netsim.Time) float64 { b.advance(now); return b.state.DownCapacityBps },
		DelayFn:   func(now netsim.Time) netsim.Time { b.advance(now); return b.state.OneWayDelay + b.jitter() },
		LossFn: func(now netsim.Time, _ *netsim.Packet) bool {
			b.advance(now)
			return b.rng.Float64() < b.state.LossProb
		},
	}
}

// UpLinkSpec returns the netsim link spec for terminal -> PoP.
func (b *BentPipe) UpLinkSpec(queueBytes int) netsim.LinkSpec {
	return netsim.LinkSpec{
		QueueByte: queueBytes,
		RateFn:    func(now netsim.Time) float64 { b.advance(now); return b.state.UpCapacityBps },
		DelayFn:   func(now netsim.Time) netsim.Time { b.advance(now); return b.state.OneWayDelay + b.jitter() },
		LossFn: func(now netsim.Time, _ *netsim.Packet) bool {
			b.advance(now)
			return b.rng.Float64() < b.state.LossProb
		},
	}
}

// VisibleDistances returns, for Figure 7, the slant range to every visible
// satellite at wall-clock time (0 when out of sight), keyed by satellite
// name, plus the serving satellite's name (empty during outage).
func (b *BentPipe) VisibleDistances(t time.Duration, sats []*orbit.Satellite) (map[string]float64, string) {
	wall := b.wall(t)
	out := make(map[string]float64, len(sats))
	for _, s := range sats {
		la := b.cfg.Constellation.SatLook(s, b.cfg.Terminal, wall)
		if la.ElevationDeg >= b.cfg.Constellation.MinElevationDeg {
			out[s.Name] = la.RangeKm
		} else {
			out[s.Name] = 0
		}
	}
	serving := ""
	st := b.StateAt(t)
	if st.Serving != nil {
		serving = st.Serving.Name
	}
	return out, serving
}
