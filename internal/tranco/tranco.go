// Package tranco provides a synthetic stand-in for the Tranco research
// ranking of the top one million websites, which the paper's extension uses
// to pick benchmark pages (five from the top 500, three from the top 10K,
// two from the remaining ranks).
//
// Every site is generated deterministically from its rank, with properties
// that reproduce the structural facts the paper leans on: popular sites are
// far more likely to be served from a geographically-distributed CDN (hence
// lower Page Transit Times), while unpopular sites are single-origin and
// often far away. Browsing behaviour samples ranks from a Zipf distribution,
// as web popularity famously follows.
package tranco

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"starlinkview/internal/geo"
)

// DefaultSize is the length of the real Tranco list.
const DefaultSize = 1_000_000

// Site is one ranked website.
type Site struct {
	Rank   int
	Domain string
	// OnCDN reports whether the site is served from a distributed CDN with
	// an edge near every metro.
	OnCDN bool
	// Origin is the site's origin location, used when OnCDN is false.
	Origin geo.LatLon
	// Resources is the number of sub-resources the landing page loads.
	Resources int
	// PageBytes is the total transfer size of the landing page.
	PageBytes int
	// Domains is the number of distinct domains contacted during the load.
	Domains int
	// Redirects is the number of HTTP redirects before the final URL.
	Redirects int
	// GoogleService marks the site as a Google property (Figure 4 studies
	// PTT to Google services specifically).
	GoogleService bool
}

// List is a deterministic synthetic ranking.
type List struct {
	seed int64
	size int
}

// NewList builds a list of the given size (DefaultSize if 0).
func NewList(seed int64, size int) (*List, error) {
	if size == 0 {
		size = DefaultSize
	}
	if size < 100 {
		return nil, fmt.Errorf("tranco: list size %d too small", size)
	}
	return &List{seed: seed, size: size}, nil
}

// Size returns the number of ranked sites.
func (l *List) Size() int { return l.size }

// hosting regions weighted towards the US/EU, like real web hosting.
var originRegions = []struct {
	loc    geo.LatLon
	weight float64
}{
	{geo.LatLon{LatDeg: 39.0, LonDeg: -77.5}, 0.30},  // US east
	{geo.LatLon{LatDeg: 37.4, LonDeg: -122.1}, 0.18}, // US west
	{geo.LatLon{LatDeg: 50.1, LonDeg: 8.7}, 0.22},    // EU (Frankfurt)
	{geo.LatLon{LatDeg: 51.5, LonDeg: -0.1}, 0.10},   // UK
	{geo.LatLon{LatDeg: 1.35, LonDeg: 103.8}, 0.10},  // Singapore
	{geo.LatLon{LatDeg: -33.9, LonDeg: 151.2}, 0.04}, // Australia
	{geo.LatLon{LatDeg: 35.7, LonDeg: 139.7}, 0.06},  // Japan
}

// siteRNGs holds the generators Site draws from. Rand.Seed resets both the
// source and the Rand's read cache, so a reseeded generator yields exactly
// the stream of rand.New(rand.NewSource(seed)) without allocating the
// source's 4.9 KB state on every call.
var siteRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// Site returns the site at the given rank (1-based). The same rank always
// yields the same site.
func (l *List) Site(rank int) (Site, error) {
	if rank < 1 || rank > l.size {
		return Site{}, fmt.Errorf("tranco: rank %d outside [1, %d]", rank, l.size)
	}
	rng := siteRNGs.Get().(*rand.Rand)
	rng.Seed(l.siteSeed(rank))
	s := drawSite(rank, rng)
	siteRNGs.Put(rng)
	return s, nil
}

// siteSeed is the seed of the stream a rank's site is drawn from.
func (l *List) siteSeed(rank int) int64 { return l.seed*1_000_003 + int64(rank) }

// drawSite builds the site at rank from rng, which must be freshly seeded
// with siteSeed(rank).
func drawSite(rank int, rng *rand.Rand) Site {
	s := Site{
		Rank:   rank,
		Domain: fmt.Sprintf("site-%06d.example", rank),
	}

	// CDN adoption falls with rank: ~95% of the top 100, ~75% of the top
	// 1000, ~40% at rank 10k, ~12% in the long tail.
	cdnProb := 0.12 + 0.86*math.Exp(-float64(rank)/4000)
	if rank <= 100 {
		cdnProb = 0.95
	}
	s.OnCDN = rng.Float64() < cdnProb

	// Origin region.
	x := rng.Float64()
	for _, r := range originRegions {
		x -= r.weight
		if x < 0 {
			s.Origin = r.loc
			break
		}
	}
	if !s.Origin.Valid() || (s.Origin == geo.LatLon{}) {
		s.Origin = originRegions[0].loc
	}

	// Page composition: log-normal-ish sizes; popular pages are heavier
	// (more scripts, ads, images).
	sizeScale := 1.0
	if rank <= 10000 {
		sizeScale = 1.1
	}
	// PageBytes models the critical-path transfer (document plus blocking
	// resources), not the full page weight.
	s.PageBytes = int(120_000 * sizeScale * math.Exp(rng.NormFloat64()*0.8))
	if s.PageBytes < 20_000 {
		s.PageBytes = 20_000
	}
	if s.PageBytes > 12_000_000 {
		s.PageBytes = 12_000_000
	}
	s.Resources = 8 + rng.Intn(60)
	s.Domains = 1 + rng.Intn(1+s.Resources/6)
	if rng.Float64() < 0.35 {
		s.Redirects = 1 + rng.Intn(2)
	}

	// Google properties cluster at the very top of the ranking.
	s.GoogleService = rank <= 40 && rank%7 < 3
	if s.GoogleService {
		s.OnCDN = true
		s.Domain = fmt.Sprintf("google-svc-%02d.example", rank)
	}
	return s
}

// PopularCutoff is the paper's (arbitrary, acknowledged as such) boundary
// between "popular" and "unpopular" sites in Figure 3.
const PopularCutoff = 200

// Popular reports whether the site falls in the paper's popular band.
func (s Site) Popular() bool { return s.Rank <= PopularCutoff }

// SampleZipf draws a rank from a Zipf distribution over the list (exponent
// ~1.1, like web popularity) using the caller's random source, and returns
// the site.
func (l *List) SampleZipf(rng *rand.Rand) Site {
	z := rand.NewZipf(rng, 1.1, 8, uint64(l.size-1))
	rank := int(z.Uint64()) + 1
	s, err := l.Site(rank)
	if err != nil {
		panic("tranco: internal rank out of range: " + err.Error())
	}
	return s
}

// SampleBand draws a uniform rank in [lo, hi] and returns the site; it is
// how the extension picks its benchmark pages (5 from [1,500], 3 from
// [501,10000], 2 from [10001,size]).
func (l *List) SampleBand(rng *rand.Rand, lo, hi int) (Site, error) {
	if lo < 1 || hi > l.size || lo > hi {
		return Site{}, fmt.Errorf("tranco: invalid band [%d, %d]", lo, hi)
	}
	return l.Site(lo + rng.Intn(hi-lo+1))
}

// BenchmarkSet returns the extension's 10 detail-tab benchmark sites:
// 5 from the top 500, 3 from the top 10K, 2 from the rest.
func (l *List) BenchmarkSet(rng *rand.Rand) ([]Site, error) {
	var out []Site
	bands := []struct{ n, lo, hi int }{
		{5, 1, 500},
		{3, 501, 10_000},
		{2, 10_001, l.size},
	}
	for _, b := range bands {
		for i := 0; i < b.n; i++ {
			s, err := l.SampleBand(rng, b.lo, b.hi)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// GoogleSite returns a deterministic Google-service site (used by the
// Figure 4 weather experiment, which the paper restricts to Google services
// accessed from London).
func (l *List) GoogleSite(rng *rand.Rand) Site {
	for {
		rank := 1 + rng.Intn(40)
		s, err := l.Site(rank)
		if err == nil && s.GoogleService {
			return s
		}
	}
}
