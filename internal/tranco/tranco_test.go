package tranco

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func newList(t *testing.T) *List {
	t.Helper()
	l, err := NewList(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewListValidation(t *testing.T) {
	if _, err := NewList(1, 50); err == nil {
		t.Error("want error for tiny list")
	}
	l, err := NewList(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != DefaultSize {
		t.Errorf("default size = %d", l.Size())
	}
}

func TestSiteDeterministic(t *testing.T) {
	l := newList(t)
	a, err := l.Site(1234)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := l.Site(1234)
	if a != b {
		t.Errorf("site not deterministic: %+v vs %+v", a, b)
	}
	if a.Rank != 1234 {
		t.Errorf("rank = %d", a.Rank)
	}
	if a.Domain == "" || !a.Origin.Valid() {
		t.Errorf("incomplete site: %+v", a)
	}
	if a.PageBytes < 20_000 || a.PageBytes > 12_000_000 {
		t.Errorf("page bytes out of range: %d", a.PageBytes)
	}
}

func TestSiteRankBounds(t *testing.T) {
	l := newList(t)
	if _, err := l.Site(0); err == nil {
		t.Error("want error for rank 0")
	}
	if _, err := l.Site(l.Size() + 1); err == nil {
		t.Error("want error for rank > size")
	}
	if _, err := l.Site(1); err != nil {
		t.Error(err)
	}
	if _, err := l.Site(l.Size()); err != nil {
		t.Error(err)
	}
}

func TestCDNAdoptionFallsWithRank(t *testing.T) {
	l := newList(t)
	frac := func(lo, hi int) float64 {
		n, cdn := 0, 0
		for r := lo; r <= hi; r++ {
			s, err := l.Site(r)
			if err != nil {
				t.Fatal(err)
			}
			n++
			if s.OnCDN {
				cdn++
			}
		}
		return float64(cdn) / float64(n)
	}
	top := frac(1, 200)
	mid := frac(5_001, 5_400)
	tail := frac(500_001, 500_400)
	if !(top > mid && mid > tail) {
		t.Errorf("CDN adoption not falling: top=%v mid=%v tail=%v", top, mid, tail)
	}
	if top < 0.8 {
		t.Errorf("top-200 CDN adoption = %v, want > 0.8", top)
	}
	if tail > 0.3 {
		t.Errorf("tail CDN adoption = %v, want < 0.3", tail)
	}
}

func TestPopularCutoff(t *testing.T) {
	l := newList(t)
	s200, _ := l.Site(200)
	s201, _ := l.Site(201)
	if !s200.Popular() || s201.Popular() {
		t.Error("popular cutoff must sit at rank 200")
	}
}

func TestSampleZipfSkew(t *testing.T) {
	l := newList(t)
	rng := rand.New(rand.NewSource(1))
	top := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if l.SampleZipf(rng).Rank <= 1000 {
			top++
		}
	}
	// Zipf browsing: a large share of visits go to the top 1000 of 1M.
	if frac := float64(top) / n; frac < 0.4 {
		t.Errorf("top-1000 visit share = %v, want > 0.4 under Zipf", frac)
	}
}

func TestSampleBand(t *testing.T) {
	l := newList(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		s, err := l.SampleBand(rng, 501, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if s.Rank < 501 || s.Rank > 10_000 {
			t.Fatalf("band sample rank %d outside [501, 10000]", s.Rank)
		}
	}
	if _, err := l.SampleBand(rng, 0, 10); err == nil {
		t.Error("want error for lo < 1")
	}
	if _, err := l.SampleBand(rng, 10, 5); err == nil {
		t.Error("want error for inverted band")
	}
}

func TestBenchmarkSetPolicy(t *testing.T) {
	l := newList(t)
	rng := rand.New(rand.NewSource(3))
	set, err := l.BenchmarkSet(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 10 {
		t.Fatalf("benchmark set size = %d, want 10", len(set))
	}
	counts := [3]int{}
	for _, s := range set {
		switch {
		case s.Rank <= 500:
			counts[0]++
		case s.Rank <= 10_000:
			counts[1]++
		default:
			counts[2]++
		}
	}
	if counts != [3]int{5, 3, 2} {
		t.Errorf("band counts = %v, want [5 3 2]", counts)
	}
}

func TestGoogleSite(t *testing.T) {
	l := newList(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		s := l.GoogleSite(rng)
		if !s.GoogleService {
			t.Fatal("GoogleSite returned a non-Google site")
		}
		if !s.OnCDN {
			t.Error("Google services must be CDN-served")
		}
		if s.Rank > 40 {
			t.Errorf("Google service at rank %d", s.Rank)
		}
	}
}

// TestSiteMatchesFreshSource holds Site, which reseeds generators from a
// shared pool, to the same draws made from a freshly built source, across
// seeds and ranks from all three benchmark bands. Four goroutines call Site
// at once so that generators pass between them through the pool.
func TestSiteMatchesFreshSource(t *testing.T) {
	pick := rand.New(rand.NewSource(1))
	var ranks []int
	for r := 1; r <= 600; r++ {
		ranks = append(ranks, r)
	}
	for i := 0; i < 300; i++ {
		ranks = append(ranks, 501+pick.Intn(10_000-500))
		ranks = append(ranks, 10_001+pick.Intn(DefaultSize-10_000))
	}
	ranks = append(ranks, 10_000, 10_001, DefaultSize)
	for _, seed := range []int64{1, 7, 42} {
		l, err := NewList(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Site, len(ranks))
		for i, r := range ranks {
			want[i] = drawSite(r, rand.New(rand.NewSource(l.siteSeed(r))))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine walks the ranks from its own offset, so
				// neighbouring calls reseed generators another rank left.
				for k := range ranks {
					i := (k + g*len(ranks)/4) % len(ranks)
					got, err := l.Site(ranks[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("seed %d rank %d: Site %+v, fresh source %+v", seed, ranks[i], got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestSiteAllocBudget holds Site to at most 64 B per call: the domain
// string and the rank boxed for its formatting. A fresh math/rand source
// per call, as Site once built, costs about 4.9 KB. Run without the race
// detector; `make check` runs it explicitly.
func TestSiteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := newList(t)
	const calls = 10_000
	if _, err := l.Site(1); err != nil { // fill the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := l.Site(1 + i*97%l.Size()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.1f B and %.2f allocs per Site call", perCall, float64(after.Mallocs-before.Mallocs)/calls)
	if perCall > 64 {
		t.Errorf("Site allocates %.1f B per call, budget 64 B", perCall)
	}
}
