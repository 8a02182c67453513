// Package extension reproduces the paper's browser-extension measurement
// pipeline: a population of users across ten cities, six months of simulated
// daily browsing, the extension's benchmark-page sampling policy (five sites
// from the Tranco top 500, three from the top 10K, two from the rest),
// anonymised opt-in data collection, IPinfo-based ISP/AS tagging (with the
// IP discarded after lookup, as the study's ethics protocol required), and
// the per-city aggregations behind Table 1 and Figures 3 and 4.
package extension

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starlinkview/internal/ipinfo"
	"starlinkview/internal/stats"
	"starlinkview/internal/tranco"
	"starlinkview/internal/weather"
	"starlinkview/internal/webperf"
)

// AccessFunc returns the state of a user's access network at a wall-clock
// instant. Starlink users are backed by a bentpipe model; others by static
// distributions.
type AccessFunc func(at time.Time) webperf.Access

// User is one extension install.
type User struct {
	// ID is the randomly generated identifier the study stores instead of
	// anything linkable.
	ID      string
	City    string
	Country string
	ISP     string // "starlink", "broadband" or "cellular"
	// SharesData gates collection: only opted-in users produce records.
	SharesData bool
	// DeviceFactor scales compute-bound PLT components — the confounder
	// that makes the paper analyse PTT instead of PLT.
	DeviceFactor float64
	// PagesPerDay is the user's mean browsing intensity.
	PagesPerDay float64

	Access AccessFunc
	Opts   webperf.Options

	ip string // discarded after tagging; never exported
	// favourites is the user's habitual site pool; most organic visits
	// revisit it, which is what gives Table 1 its ~10:1 request-to-domain
	// ratio.
	favourites []tranco.Site
}

// Record is one anonymised page-load observation, as stored server-side.
type Record struct {
	UserID    string
	City      string
	Country   string
	ISP       string
	ASN       int
	At        time.Time
	Domain    string
	Rank      int
	Popular   bool
	PTTMs     float64
	PLTMs     float64
	Condition weather.Condition
	HasWx     bool
	// Benchmark marks loads triggered by the extension's details tab
	// rather than organic browsing.
	Benchmark bool
	// Google marks loads of Google services (Figure 4's subject).
	Google bool
}

// Collector is the study's server side.
type Collector struct {
	list     *tranco.List
	resolver *ipinfo.Resolver
	rng      *rand.Rand
	// WeatherAt, if set, tags each record with the historical weather for
	// its city at collection time (the paper's OpenWeatherMap join).
	WeatherAt func(city string, at time.Time) (weather.Condition, bool)

	// OnRecord, if set, observes each record the moment it is collected —
	// the hook streaming sinks (internal/collector's ingest client) attach
	// to, instead of batch-reading Records afterwards. It is called on the
	// simulating goroutine, in collection order.
	OnRecord func(Record)

	records []Record
}

// NewCollector builds an empty collector.
func NewCollector(list *tranco.List, seed int64) (*Collector, error) {
	if list == nil {
		return nil, fmt.Errorf("extension: tranco list is required")
	}
	return &Collector{
		list:     list,
		resolver: ipinfo.NewResolver(),
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Enroll registers a user install: assigns the synthetic IP used only for
// ISP tagging and generates the anonymous identifier.
func (c *Collector) Enroll(u *User) error {
	if u.City == "" || u.ISP == "" {
		return fmt.Errorf("extension: user needs city and ISP")
	}
	if u.Access == nil {
		return fmt.Errorf("extension: user needs an access model")
	}
	if u.DeviceFactor == 0 {
		u.DeviceFactor = 0.6 + c.rng.Float64()*1.4
	}
	if u.PagesPerDay == 0 {
		u.PagesPerDay = 8 + c.rng.Float64()*16
	}
	u.ID = fmt.Sprintf("anon-%08x", c.rng.Uint32())
	u.ip = c.resolver.Assign(u.City, u.Country, u.ISP)
	// Draw the user's habitual sites once, Zipf-weighted.
	nFav := 14 + c.rng.Intn(12)
	for i := 0; i < nFav; i++ {
		u.favourites = append(u.favourites, c.list.SampleZipf(c.rng))
	}
	return nil
}

// Records returns the collected dataset.
func (c *Collector) Records() []Record { return c.records }

// buildRecord assembles one observation if the user opted in. It touches no
// collector mutable state (the resolver is internally synchronised and
// WeatherAt must be concurrency-safe), so concurrent user simulations may
// call it freely.
func (c *Collector) buildRecord(u *User, at time.Time, site tranco.Site, pl webperf.PageLoad, benchmark bool) (Record, bool) {
	if !u.SharesData {
		return Record{}, false
	}
	rec, err := c.resolver.Resolve(u.ip, at)
	if err != nil {
		return Record{}, false
	}
	r := Record{
		UserID:    u.ID,
		City:      rec.City,
		Country:   rec.Country,
		ISP:       rec.ISP,
		ASN:       rec.ASN,
		At:        at,
		Domain:    site.Domain,
		Rank:      site.Rank,
		Popular:   site.Popular(),
		PTTMs:     float64(pl.PTT()) / float64(time.Millisecond),
		PLTMs:     float64(pl.PLT()) / float64(time.Millisecond),
		Benchmark: benchmark,
		Google:    site.GoogleService,
	}
	if c.WeatherAt != nil {
		if cond, ok := c.WeatherAt(rec.City, at); ok {
			r.Condition = cond
			r.HasWx = true
		}
	}
	return r, true
}

// commit appends a record to the dataset and fires the streaming hook.
func (c *Collector) commit(r Record) {
	c.records = append(c.records, r)
	if c.OnRecord != nil {
		c.OnRecord(r)
	}
}

// loadOnce performs one page load for the user and emits the record.
func (c *Collector) loadOnce(u *User, rng *rand.Rand, at time.Time, site tranco.Site, benchmark bool, emit func(Record)) {
	acc := u.Access(at)
	opts := u.Opts
	opts.DeviceFactor = u.DeviceFactor
	// Figure 3's mechanism: once Starlink egress moved to SpaceX's AS, its
	// peering costs a little extra wide-area latency.
	if u.ISP == "starlink" && ipinfo.StarlinkASAt(u.City, at) == ipinfo.ASSpaceX {
		opts.ASPenaltyRTT += 9 * time.Millisecond
	}
	pl := webperf.LoadPage(rng, site, acc, opts)
	if r, ok := c.buildRecord(u, at, site, pl, benchmark); ok {
		emit(r)
	}
}

// sortByAt puts records in chronological order (simplifies CDF-over-time
// analyses); records with equal At keep their order. The sort is stable, so
// sorting a dataset once after many commits orders it exactly as sorting it
// after every commit would.
func sortByAt(records []Record) {
	slices.SortStableFunc(records, func(a, b Record) int { return a.At.Compare(b.At) })
}

// SimulateUser replays the user's browsing between start and end: organic
// Zipf-distributed visits concentrated in waking hours, with occasional
// details-tab openings that trigger the 5/3/2 benchmark set. The dataset is
// then sorted by At, ties in commit order. If the simulation fails, the
// user's partial records are left appended unsorted.
func (c *Collector) SimulateUser(u *User, start, end time.Time) error {
	if err := c.simulateUser(u, start, end); err != nil {
		return err
	}
	sortByAt(c.records)
	return nil
}

// simulateUser is SimulateUser without the sort.
func (c *Collector) simulateUser(u *User, start, end time.Time) error {
	if u.ID == "" {
		return fmt.Errorf("extension: user %q not enrolled", u.City)
	}
	if !end.After(start) {
		return fmt.Errorf("extension: empty simulation window")
	}
	rng := rand.New(rand.NewSource(int64(u.ID[5]) + c.rng.Int63()))
	return c.simulate(u, rng, start, end, c.commit)
}

// SimulateUsers replays every user's browsing across workers goroutines.
// The result is byte-identical to calling SimulateUser for each user in
// order: the per-user RNG streams are pre-seeded from the collector RNG in
// enrollment order (exactly the draws the serial loop makes), each worker
// emits into a private buffer, the users' records are committed — appended,
// OnRecord fired — in user order, and the dataset is sorted once at the
// end. workers <= 1 runs the users one after another on the calling
// goroutine, firing OnRecord as each record is collected.
//
// If a user fails, the records of the users before it are sorted, its
// partial records are appended unsorted, and its error is returned.
//
// Concurrency contract: the users' Access models are per-user (never
// shared), and the collector's resolver and WeatherAt hook must be
// concurrency-safe.
func (c *Collector) SimulateUsers(users []*User, start, end time.Time, workers int) error {
	if workers > len(users) {
		workers = len(users)
	}
	if workers <= 1 {
		for _, u := range users {
			mark := len(c.records)
			if err := c.simulateUser(u, start, end); err != nil {
				sortByAt(c.records[:mark])
				return err
			}
		}
		sortByAt(c.records)
		return nil
	}
	for _, u := range users {
		if u.ID == "" {
			return fmt.Errorf("extension: user %q not enrolled", u.City)
		}
	}
	if !end.After(start) {
		return fmt.Errorf("extension: empty simulation window")
	}
	seeds := make([]int64, len(users))
	for i, u := range users {
		seeds[i] = int64(u.ID[5]) + c.rng.Int63()
	}
	// Each worker re-seeds one RNG per user — Seed restarts exactly a fresh
	// source's stream — and appends every user it runs to its own list of
	// fixed-size chunks, which grows without copying; spans[i] is where
	// user i's records sit in its worker's list.
	const chunkLen = 256
	type span struct{ w, lo, hi int }
	chunks := make([][][]Record, workers)
	spans := make([]span, len(users))
	errs := make([]error, len(users))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			n := 0
			emit := func(r Record) {
				if n%chunkLen == 0 {
					chunks[w] = append(chunks[w], make([]Record, chunkLen))
				}
				chunks[w][n/chunkLen][n%chunkLen] = r
				n++
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(users) {
					return
				}
				rng.Seed(seeds[i])
				lo := n
				errs[i] = c.simulate(users[i], rng, start, end, emit)
				spans[i] = span{w, lo, n}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, sp := range spans {
		total += sp.hi - sp.lo
	}
	c.records = slices.Grow(c.records, total)
	for i, sp := range spans {
		mark := len(c.records)
		for k := sp.lo; k < sp.hi; k++ {
			c.commit(chunks[sp.w][k/chunkLen][k%chunkLen])
		}
		if errs[i] != nil {
			sortByAt(c.records[:mark])
			return errs[i]
		}
	}
	sortByAt(c.records)
	return nil
}

// simulate is the per-user browsing loop; records go through emit.
func (c *Collector) simulate(u *User, rng *rand.Rand, start, end time.Time, emit func(Record)) error {
	for day := start; day.Before(end); day = day.Add(24 * time.Hour) {
		// Draw the day's visit instants first and sort them: the Starlink
		// access model must be sampled in non-decreasing time order.
		visits := poisson(rng, u.PagesPerDay)
		times := make([]time.Duration, 0, visits+1)
		for v := 0; v < visits; v++ {
			times = append(times, wakingOffset(rng))
		}
		// Details tab opened roughly twice a week: ten benchmark loads.
		benchmarkAt := time.Duration(-1)
		if rng.Float64() < 2.0/7 {
			benchmarkAt = wakingOffset(rng)
			times = append(times, benchmarkAt)
		}
		slices.Sort(times)

		for _, off := range times {
			at := day.Add(off)
			if at.After(end) {
				continue
			}
			if off == benchmarkAt {
				set, err := c.list.BenchmarkSet(rng)
				if err != nil {
					return err
				}
				for _, site := range set {
					c.loadOnce(u, rng, at, site, true, emit)
					at = at.Add(time.Duration(5+rng.Intn(20)) * time.Second)
				}
				continue
			}
			// Organic browsing: mostly habitual sites, sometimes fresh ones.
			var site tranco.Site
			if len(u.favourites) > 0 && rng.Float64() < 0.85 {
				site = u.favourites[rng.Intn(len(u.favourites))]
			} else {
				site = c.list.SampleZipf(rng)
			}
			c.loadOnce(u, rng, at, site, false, emit)
		}
	}
	return nil
}

// wakingOffset draws a time-of-day skewed towards 08:00-23:00 local; the
// paper notes night-time sparsity in extension data.
func wakingOffset(rng *rand.Rand) time.Duration {
	h := 8 + rng.Float64()*15 // 08:00..23:00
	if rng.Float64() < 0.07 { // occasional night owls
		h = rng.Float64() * 8
	}
	return time.Duration(h * float64(time.Hour))
}

// poisson draws a Poisson variate with the given mean (Knuth's algorithm;
// fine for the small means used here).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TableRow is one Table 1 row.
type TableRow struct {
	City              string
	StarlinkReqs      int
	StarlinkDomains   int
	StarlinkMedianPTT float64
	NonSLReqs         int
	NonSLDomains      int
	NonSLMedianPTT    float64
}

// CityTable reproduces Table 1: per city, request counts, distinct domains
// and median PTT for Starlink vs non-Starlink users.
func (c *Collector) CityTable(cities []string) []TableRow {
	var rows []TableRow
	for _, city := range cities {
		row := TableRow{City: city}
		slDomains := map[string]bool{}
		nslDomains := map[string]bool{}
		var slPTT, nslPTT []float64
		for _, r := range c.records {
			if r.City != city {
				continue
			}
			if r.ISP == "starlink" {
				row.StarlinkReqs++
				slDomains[r.Domain] = true
				slPTT = append(slPTT, r.PTTMs)
			} else {
				row.NonSLReqs++
				nslDomains[r.Domain] = true
				nslPTT = append(nslPTT, r.PTTMs)
			}
		}
		row.StarlinkDomains = len(slDomains)
		row.NonSLDomains = len(nslDomains)
		row.StarlinkMedianPTT = stats.Median(slPTT)
		row.NonSLMedianPTT = stats.Median(nslPTT)
		rows = append(rows, row)
	}
	return rows
}

// PTTSamples returns the PTT values of records matching the filter.
func (c *Collector) PTTSamples(keep func(Record) bool) []float64 {
	var out []float64
	for _, r := range c.records {
		if keep(r) {
			out = append(out, r.PTTMs)
		}
	}
	return out
}

// UserCount returns the number of distinct users in the dataset, per ISP
// class ("starlink" vs everything else).
func (c *Collector) UserCount() (starlink, nonStarlink int) {
	sl := map[string]bool{}
	nsl := map[string]bool{}
	for _, r := range c.records {
		if r.ISP == "starlink" {
			sl[r.UserID] = true
		} else {
			nsl[r.UserID] = true
		}
	}
	return len(sl), len(nsl)
}

// Cities returns the distinct cities in the dataset.
func (c *Collector) Cities() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range c.records {
		if !seen[r.City] {
			seen[r.City] = true
			out = append(out, r.City)
		}
	}
	sort.Strings(out)
	return out
}

// LoadRecords replaces the collector's dataset with externally-loaded
// records — the path for re-running the study's aggregations over a
// released dataset instead of a fresh simulation. The dataset is sorted by
// At, ties in load order.
func (c *Collector) LoadRecords(records []Record) {
	c.records = append([]Record(nil), records...)
	sortByAt(c.records)
}
