// Package core assembles the whole reproduction: it builds the world the
// paper measured (the Starlink shell-1 constellation, ten cities of
// extension users on three kinds of ISPs, three volunteer Raspberry Pi
// nodes, per-city weather), runs every experiment in the evaluation, and
// returns results shaped exactly like the paper's tables and figures.
//
// A Study is the library's main entry point:
//
//	study, err := core.NewStudy(core.DefaultConfig())
//	...
//	rows, err := study.Table1()
//
// Every experiment is deterministic for a given Config.Seed.
package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"starlinkview/internal/bentpipe"
	"starlinkview/internal/extension"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/netsim"
	"starlinkview/internal/obs"
	"starlinkview/internal/orbit"
	"starlinkview/internal/trace"
	"starlinkview/internal/tranco"
	"starlinkview/internal/weather"
	"starlinkview/internal/webperf"
)

// Config parameterises a Study.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Epoch is the study start; the paper collected from December 2021.
	Epoch time.Time
	// BrowsingDays is the length of the extension campaign (the paper ran
	// six months). Tests may shorten it.
	BrowsingDays int
	// Planes and SatsPerPlane size the synthetic shell-1 constellation.
	// The real shell is 72x22; a reduced shell keeps unit tests quick while
	// preserving the geometry.
	Planes       int
	SatsPerPlane int
	// Scale trades experiment fidelity for runtime: 1.0 runs the
	// paper-sized experiments, smaller values shrink sample counts and
	// test durations proportionally (floored at usable minimums).
	Scale float64

	// Workers bounds the goroutines the study's drivers (RunBrowsing and
	// the per-city/per-variant experiment loops) fan work across. Zero
	// means runtime.NumCPU(). Results are byte-identical at any worker
	// count: every parallel unit owns its seeds and output slot, and
	// merges happen in the serial loop's order. When Trace is set the
	// study runs serially regardless, so span event order stays
	// reproducible.
	Workers int

	// Registry, if non-nil, meters the simulation: every bent pipe the
	// study builds shares one bentpipe.Metrics set (counters aggregate
	// across users), and experiment paths register per-link counters.
	// Nil keeps the study unmetered.
	Registry *obs.Registry
	// Trace, if non-nil, receives simulation span events (handovers,
	// outages, loss windows, link drops) from every model the study runs.
	Trace *trace.Span
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Epoch:        time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC),
		BrowsingDays: 180,
		Planes:       72,
		SatsPerPlane: 22,
		Scale:        1.0,
	}
}

// QuickConfig returns a configuration sized for tests: a thinner
// constellation, one month of browsing, and abbreviated network runs.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.BrowsingDays = 21
	cfg.Planes = 24
	cfg.Scale = 0.2
	return cfg
}

// Study is a fully-assembled reproduction environment.
type Study struct {
	cfg Config

	Constellation *orbit.Constellation
	List          *tranco.List
	Collector     *extension.Collector

	users []*extension.User
	// weatherByCity powers the OpenWeatherMap-style historical join; each
	// city gets one generator used for record tagging. The generator's
	// memoised timeline is query-order independent, but extending it
	// mutates state, so each is wrapped with a mutex for the parallel
	// browsing driver.
	weatherByCity map[string]*cityWeather
	// pipeMetrics is the shared bent-pipe metric set when cfg.Registry is
	// configured; counters aggregate across all users' pipes.
	pipeMetrics *bentpipe.Metrics

	// simMu guards sims, the idle simulators newSim renews: at most one per
	// worker (see newSim).
	simMu sync.Mutex
	sims  []*netsim.Sim

	browsed bool
}

// NewStudy builds the world.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Epoch.IsZero() {
		return nil, fmt.Errorf("core: epoch is required")
	}
	if cfg.BrowsingDays <= 0 {
		return nil, fmt.Errorf("core: browsing days must be positive")
	}
	if cfg.Planes <= 0 || cfg.SatsPerPlane <= 0 {
		return nil, fmt.Errorf("core: invalid constellation size")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}

	shell := orbit.Shell1(cfg.Epoch)
	shell.Planes = cfg.Planes
	shell.SatsPerPlane = cfg.SatsPerPlane
	constellation, err := orbit.GenerateShell(shell)
	if err != nil {
		return nil, err
	}

	list, err := tranco.NewList(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	collector, err := extension.NewCollector(list, cfg.Seed)
	if err != nil {
		return nil, err
	}

	s := &Study{
		cfg:           cfg,
		Constellation: constellation,
		List:          list,
		Collector:     collector,
		weatherByCity: make(map[string]*cityWeather),
	}
	if cfg.Registry != nil {
		s.pipeMetrics = bentpipe.NewMetrics(cfg.Registry)
	}
	for _, c := range ispnet.Cities() {
		g, err := weather.NewGenerator(c.Climatology, cfg.Seed+int64(len(c.Name)))
		if err != nil {
			return nil, err
		}
		s.weatherByCity[c.Name] = &cityWeather{g: g}
	}
	collector.WeatherAt = func(city string, at time.Time) (weather.Condition, bool) {
		cw, ok := s.weatherByCity[city]
		if !ok {
			return 0, false
		}
		return cw.at(at.Sub(cfg.Epoch)), true
	}

	if err := s.buildPopulation(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the study's configuration.
func (s *Study) Config() Config { return s.cfg }

// cityWeather serialises access to one city's tagging generator; the
// timeline it memoises is deterministic regardless of query order.
type cityWeather struct {
	mu sync.Mutex
	g  *weather.Generator
}

func (cw *cityWeather) at(t time.Duration) weather.Condition {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.g.At(t)
}

// workers resolves the study's parallelism budget.
func (s *Study) workers() int {
	if s.cfg.Trace != nil {
		// Concurrent span events would interleave nondeterministically.
		return 1
	}
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.NumCPU()
}

// cdnEdgeRTT is the metro CDN edge round trip per city. 2022 Sydney was
// notably further from major CDN deployments than London or US metros.
func cdnEdgeRTT(city ispnet.City) time.Duration {
	switch city.Name {
	case "Sydney":
		return 16 * time.Millisecond
	case "Warsaw", "Barcelona":
		return 8 * time.Millisecond
	default:
		return 4 * time.Millisecond
	}
}

// starlinkAccess wraps a per-user bent pipe into an extension AccessFunc.
func (s *Study) starlinkAccess(city ispnet.City, seed int64) (extension.AccessFunc, error) {
	// Each user owns a generator clone (same seed as the city's tagging
	// generator) so their link sees the same weather their records are
	// tagged with.
	userWx, err := weather.NewGenerator(city.Climatology, s.cfg.Seed+int64(len(city.Name)))
	if err != nil {
		return nil, err
	}
	pipe, err := bentpipe.New(bentpipe.Config{
		Terminal:        city.Loc,
		PoP:             city.PoP,
		Constellation:   s.Constellation,
		Epoch:           s.cfg.Epoch,
		Weather:         userWx,
		DownCapacityBps: 330e6,
		UpCapacityBps:   28e6,
		Load: bentpipe.DiurnalLoad{
			Base: 0.15, Peak: 0.62, PeakHour: 21,
			UTCOffsetHours: city.UTCOffsetHours,
			Subscribers:    city.Subscribers,
		},
		Metrics: s.pipeMetrics,
		Trace:   s.cfg.Trace,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	epoch := s.cfg.Epoch
	return func(at time.Time) webperf.Access {
		st := pipe.StateAt(at.Sub(epoch))
		return webperf.Access{
			RTT:        2 * st.OneWayDelay,
			JitterMean: 2 * st.JitterMean,
			DownBps:    st.DownCapacityBps,
			LossProb:   st.LossProb,
		}
	}, nil
}

// terrestrialAccess models a non-Starlink user's connection.
func terrestrialAccess(isp string, rng *rand.Rand) extension.AccessFunc {
	switch isp {
	case "cellular":
		base := time.Duration(48+rng.Intn(28)) * time.Millisecond
		down := float64(30+rng.Intn(50)) * 1e6
		return func(time.Time) webperf.Access {
			return webperf.Access{
				RTT:        base,
				JitterMean: 14 * time.Millisecond,
				DownBps:    down,
				LossProb:   0.0002,
			}
		}
	default: // broadband
		base := time.Duration(9+rng.Intn(10)) * time.Millisecond
		down := float64(80+rng.Intn(250)) * 1e6
		return func(time.Time) webperf.Access {
			return webperf.Access{
				RTT:        base,
				JitterMean: 3 * time.Millisecond,
				DownBps:    down,
				LossProb:   0.00005,
			}
		}
	}
}

// populationPlan lists the 28 opted-in installs across the ten cities of
// Figure 1: 18 Starlink and 10 non-Starlink users.
type plannedUser struct {
	city    ispnet.City
	isp     string
	pagesPD float64
}

func populationPlan() []plannedUser {
	return []plannedUser{
		// London: the richest slice of Table 1.
		{ispnet.London, "starlink", 13}, {ispnet.London, "starlink", 12},
		{ispnet.London, "starlink", 11}, {ispnet.London, "starlink", 14},
		{ispnet.London, "starlink", 12},
		{ispnet.London, "cellular", 7}, {ispnet.London, "cellular", 8},
		{ispnet.London, "broadband", 7},
		// Seattle.
		{ispnet.Seattle, "starlink", 10}, {ispnet.Seattle, "starlink", 10},
		{ispnet.Seattle, "cellular", 4},
		// Sydney.
		{ispnet.Sydney, "starlink", 10}, {ispnet.Sydney, "starlink", 9},
		{ispnet.Sydney, "cellular", 5},
		// The remaining seven cities of Figure 1.
		{ispnet.Toronto, "starlink", 8}, {ispnet.Toronto, "starlink", 7},
		{ispnet.Toronto, "cellular", 5},
		{ispnet.Warsaw, "starlink", 8}, {ispnet.Warsaw, "starlink", 7},
		{ispnet.Warsaw, "broadband", 5},
		{ispnet.Barcelona, "starlink", 8},
		{ispnet.NorthCarolina, "starlink", 8}, {ispnet.NorthCarolina, "starlink", 7},
		{ispnet.NorthCarolina, "cellular", 5},
		{ispnet.Wiltshire, "starlink", 8},
		{ispnet.Berlin, "starlink", 8}, {ispnet.Berlin, "broadband", 5},
		{ispnet.Denver, "cellular", 5},
	}
}

// buildPopulation enrols the 28 users.
func (s *Study) buildPopulation() error {
	rng := rand.New(rand.NewSource(s.cfg.Seed + 77))
	for i, p := range populationPlan() {
		u := &extension.User{
			City:        p.city.Name,
			Country:     p.city.CountryCode,
			ISP:         p.isp,
			SharesData:  true,
			PagesPerDay: p.pagesPD,
			Opts: webperf.Options{
				ClientLoc:  p.city.Loc,
				CDNEdgeRTT: cdnEdgeRTT(p.city),
			},
		}
		if p.isp == "starlink" {
			acc, err := s.starlinkAccess(p.city, s.cfg.Seed+int64(1000+i))
			if err != nil {
				return err
			}
			u.Access = acc
		} else {
			u.Access = terrestrialAccess(p.isp, rng)
		}
		if err := s.Collector.Enroll(u); err != nil {
			return err
		}
		s.users = append(s.users, u)
	}
	return nil
}

// Users returns the enrolled population.
func (s *Study) Users() []*extension.User { return s.users }

// RunBrowsing simulates the whole campaign; it is idempotent.
func (s *Study) RunBrowsing() error {
	if s.browsed {
		return nil
	}
	start := s.cfg.Epoch
	end := start.Add(time.Duration(s.cfg.BrowsingDays) * 24 * time.Hour)
	if err := s.Collector.SimulateUsers(s.users, start, end, s.workers()); err != nil {
		return err
	}
	s.browsed = true
	return nil
}

// scaled shrinks n by the study's Scale, flooring at min.
func (s *Study) scaled(n, min int) int {
	v := int(float64(n) * s.cfg.Scale)
	if v < min {
		v = min
	}
	return v
}

// scaledDur shrinks a duration by the study's Scale, flooring at min.
func (s *Study) scaledDur(d, min time.Duration) time.Duration {
	v := time.Duration(float64(d) * s.cfg.Scale)
	if v < min {
		v = min
	}
	return v
}
