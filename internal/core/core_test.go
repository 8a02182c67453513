package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/ipinfo"
	"starlinkview/internal/stats"
)

// The quick study is expensive to build and its browsing campaign even more
// so; tests share one instance.
var (
	sharedOnce  sync.Once
	sharedStudy *Study
	sharedErr   error
)

func quickStudy(t *testing.T) *Study {
	t.Helper()
	sharedOnce.Do(func() {
		cfg := QuickConfig()
		// Span both AS migrations (Feb and Apr 2022) so Figure 3 has data
		// on both sides.
		cfg.BrowsingDays = 150
		sharedStudy, sharedErr = NewStudy(cfg)
		if sharedErr == nil {
			sharedErr = sharedStudy.RunBrowsing()
		}
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedStudy
}

// memo computes one exhibit of the shared study once per test binary. The
// network exhibits (Figure 8 above all) dominate this package's run time, and
// several tests assert on the same result.
type memo[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (m *memo[T]) get(t *testing.T, compute func(*Study) (T, error)) T {
	t.Helper()
	s := quickStudy(t)
	m.once.Do(func() { m.v, m.err = compute(s) })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.v
}

var (
	memoTable2   memo[[]Table2Row]
	memoTable3   memo[[]Table3Row]
	memoFigure5  memo[Fig5Result]
	memoFigure6a memo[[]Fig6aSeries]
	memoFigure6b memo[[]Fig6bPoint]
	memoFigure6c memo[Fig6cResult]
	memoFigure7  memo[Fig7Result]
	memoFigure8  memo[[]Fig8Row]
	memoAblation memo[[]AblationLossRow]
	memoHandover memo[[]AblationHandoverRow]
	memoISL      memo[[]ISLRow]
)

func quickTable2(t *testing.T) []Table2Row     { return memoTable2.get(t, (*Study).Table2) }
func quickTable3(t *testing.T) []Table3Row     { return memoTable3.get(t, (*Study).Table3) }
func quickFigure5(t *testing.T) Fig5Result     { return memoFigure5.get(t, (*Study).Figure5) }
func quickFigure6a(t *testing.T) []Fig6aSeries { return memoFigure6a.get(t, (*Study).Figure6a) }
func quickFigure6b(t *testing.T) []Fig6bPoint  { return memoFigure6b.get(t, (*Study).Figure6b) }
func quickFigure6c(t *testing.T) Fig6cResult   { return memoFigure6c.get(t, (*Study).Figure6c) }
func quickFigure7(t *testing.T) Fig7Result     { return memoFigure7.get(t, (*Study).Figure7) }
func quickFigure8(t *testing.T) []Fig8Row      { return memoFigure8.get(t, (*Study).Figure8) }
func quickAblation(t *testing.T) []AblationLossRow {
	return memoAblation.get(t, (*Study).AblationLossModel)
}
func quickHandoverAblation(t *testing.T) []AblationHandoverRow {
	return memoHandover.get(t, (*Study).AblationHandoverPolicy)
}
func quickISL(t *testing.T) []ISLRow { return memoISL.get(t, (*Study).ExtensionISL) }

func TestNewStudyValidation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Epoch = time.Time{}
	if _, err := NewStudy(cfg); err == nil {
		t.Error("want error for zero epoch")
	}
	cfg = QuickConfig()
	cfg.BrowsingDays = 0
	if _, err := NewStudy(cfg); err == nil {
		t.Error("want error for zero browsing days")
	}
	cfg = QuickConfig()
	cfg.Planes = 0
	if _, err := NewStudy(cfg); err == nil {
		t.Error("want error for zero planes")
	}
}

func TestPopulationMatchesPaper(t *testing.T) {
	s := quickStudy(t)
	rows := s.Figure1()
	wantCities := int(Paper("Figure 1", "all", "cities"))
	wantSL := int(Paper("Figure 1", "Starlink", "users"))
	wantNSL := int(Paper("Figure 1", "non-Starlink", "users"))
	if len(rows) != wantCities {
		t.Errorf("cities = %d, want %d (Figure 1)", len(rows), wantCities)
	}
	sl, nsl := 0, 0
	for _, r := range rows {
		sl += r.Starlink
		nsl += r.NonStarlink
	}
	if sl != wantSL || nsl != wantNSL {
		t.Errorf("population = %d SL + %d non-SL, want %d + %d", sl, nsl, wantSL, wantNSL)
	}
}

func TestTable1Shape(t *testing.T) {
	s := quickStudy(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byCity := map[string]int{}
	for i, r := range rows {
		byCity[r.City] = i
		if r.StarlinkReqs < 500 || r.NonSLReqs < 100 {
			t.Errorf("%s: too few requests (%d/%d)", r.City, r.StarlinkReqs, r.NonSLReqs)
		}
		if r.StarlinkDomains <= 0 || r.StarlinkDomains > r.StarlinkReqs {
			t.Errorf("%s: implausible domain count %d", r.City, r.StarlinkDomains)
		}
		// The headline: Starlink offers among the lowest PTTs.
		if r.StarlinkMedianPTT >= r.NonSLMedianPTT {
			t.Errorf("%s: Starlink median %.0f >= non-Starlink %.0f", r.City, r.StarlinkMedianPTT, r.NonSLMedianPTT)
		}
		// Within 2x of the paper's median for the same city.
		p := Paper("Table 1", r.City, "Starlink median PTT")
		if r.StarlinkMedianPTT < p/2 || r.StarlinkMedianPTT > p*2 {
			t.Errorf("%s: Starlink median %.0f vs paper %.0f (out of 2x band)", r.City, r.StarlinkMedianPTT, p)
		}
	}
	// London has by far the most data; Sydney's Starlink PTT is the worst.
	lr, sr := rows[byCity["London"]], rows[byCity["Sydney"]]
	if lr.StarlinkReqs <= sr.StarlinkReqs {
		t.Error("London should dominate request volume")
	}
	if sr.StarlinkMedianPTT <= lr.StarlinkMedianPTT {
		t.Error("Sydney Starlink PTT should exceed London's")
	}
}

func TestFigure3ASMigrationEffect(t *testing.T) {
	s := quickStudy(t)
	series, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// Index medians.
	med := map[string]map[bool]map[int]float64{}
	for _, sr := range series {
		if med[sr.City] == nil {
			med[sr.City] = map[bool]map[int]float64{true: {}, false: {}}
		}
		med[sr.City][sr.Popular][sr.ASN] = sr.Median
	}
	london := med["London"]
	if london == nil {
		t.Fatal("no London series")
	}
	// Popular faster than unpopular on both ASes.
	if london[true][ipinfo.ASGoogle] >= london[false][ipinfo.ASGoogle] {
		t.Error("London popular should beat unpopular before the switch")
	}
	// The switch to SpaceX's AS slightly raises PTT for both bands.
	for _, popular := range []bool{true, false} {
		before := london[popular][ipinfo.ASGoogle]
		after := london[popular][ipinfo.ASSpaceX]
		if before == 0 || after == 0 {
			t.Fatalf("missing London series popular=%v", popular)
		}
		if after <= before {
			t.Errorf("London popular=%v: PTT should increase after the AS switch (%.1f -> %.1f)", popular, before, after)
		}
		if after > before*1.6 {
			t.Errorf("London popular=%v: AS switch effect implausibly large (%.1f -> %.1f)", popular, before, after)
		}
	}
}

func TestFigure4WeatherEffect(t *testing.T) {
	s := quickStudy(t)
	rows, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("only %d conditions covered", len(rows))
	}
	var clear, rain float64
	for _, r := range rows {
		switch r.Condition.String() {
		case "Clear Sky":
			clear = r.Summary.Median
		case "Moderate Rain":
			rain = r.Summary.Median
		}
	}
	if clear == 0 || rain == 0 {
		t.Fatal("missing clear-sky or moderate-rain rows")
	}
	// The paper's headline: ~2x from clear sky to moderate rain.
	if rain < 1.4*clear {
		t.Errorf("moderate rain median %.1f not clearly above clear sky %.1f", rain, clear)
	}
	if rain > 4*clear {
		t.Errorf("rain effect implausibly large: %.1f vs %.1f", rain, clear)
	}
}

func TestFigure5Ordering(t *testing.T) {
	res := quickFigure5(t)
	sl, bb, cell := res["starlink"], res["broadband"], res["cellular"]
	if len(sl) == 0 || len(bb) == 0 || len(cell) == 0 {
		t.Fatal("missing series")
	}
	// First hop: broadband tiny, Starlink's bent pipe large, cellular larger.
	if !(bb[0].MeanMs < sl[0].MeanMs && sl[0].MeanMs < cell[0].MeanMs) {
		t.Errorf("first-hop ordering broken: bb=%.1f sl=%.1f cell=%.1f", bb[0].MeanMs, sl[0].MeanMs, cell[0].MeanMs)
	}
	if sl[0].MeanMs < 20 {
		t.Errorf("Starlink first hop %.1f ms too fast for a bent pipe", sl[0].MeanMs)
	}
	// Everyone pays the Atlantic: final hop mean far above the first for
	// broadband, and the jump lands mid-path.
	last := func(h []Fig5Hop) float64 { return h[len(h)-1].MeanMs }
	if last(bb) < 60 || last(sl) < 80 || last(cell) < 80 {
		t.Errorf("final hops too fast: bb=%.1f sl=%.1f cell=%.1f", last(bb), last(sl), last(cell))
	}
	// Starlink ends slower than broadband (Figure 5's conclusion).
	if last(sl) <= last(bb) {
		t.Errorf("Starlink end-to-end %.1f should exceed broadband %.1f", last(sl), last(bb))
	}
}

func TestTable2BentPipeDominates(t *testing.T) {
	rows := quickTable2(t)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	med := map[string]Table2Row{}
	for _, r := range rows {
		med[r.City] = r
		if r.Wireless.MedianMs <= 0 || r.Whole.MedianMs <= 0 {
			t.Errorf("%s: zero estimates", r.City)
		}
		// The bent pipe contributes a large share of the whole path's
		// queueing (Table 2's central claim).
		if r.Wireless.MedianMs < 0.4*r.Whole.MedianMs {
			t.Errorf("%s: bent pipe %.1f ms not a large share of whole path %.1f ms",
				r.City, r.Wireless.MedianMs, r.Whole.MedianMs)
		}
	}
	// Geographic ordering: NC most loaded, Barcelona least.
	if !(med["NorthCarolina"].Wireless.MedianMs > med["London"].Wireless.MedianMs &&
		med["London"].Wireless.MedianMs > med["Barcelona"].Wireless.MedianMs) {
		t.Errorf("queueing ordering broken: NC=%.1f London=%.1f Barcelona=%.1f",
			med["NorthCarolina"].Wireless.MedianMs, med["London"].Wireless.MedianMs, med["Barcelona"].Wireless.MedianMs)
	}
}

func TestTable3GeographicSpread(t *testing.T) {
	rows := quickTable3(t)
	med := map[string]Table3Row{}
	for _, r := range rows {
		med[r.City] = r
		if r.DownMbps <= 0 || r.UpMbps <= 0 {
			t.Errorf("%s: zero speedtest", r.City)
		}
		if r.DownMbps < 2*r.UpMbps {
			t.Errorf("%s: missing Starlink asymmetry (%.1f / %.1f)", r.City, r.DownMbps, r.UpMbps)
		}
	}
	// London tops the table despite being farthest from Iowa (the paper's
	// surprise), and Warsaw trails.
	if med["London"].DownMbps <= med["Warsaw"].DownMbps {
		t.Errorf("London %.1f should beat Warsaw %.1f", med["London"].DownMbps, med["Warsaw"].DownMbps)
	}
	if med["London"].DownMbps <= med["Toronto"].DownMbps {
		t.Errorf("London %.1f should beat Toronto %.1f", med["London"].DownMbps, med["Toronto"].DownMbps)
	}
}

func TestFigure6aGeography(t *testing.T) {
	rows := quickFigure6a(t)
	med := map[string]float64{}
	for _, r := range rows {
		med[r.Label] = r.MedianMbps
		if r.N < 10 {
			t.Errorf("%s: only %d samples", r.Label, r.N)
		}
	}
	// Barcelona > NC (the paper's gap is about 4x); London in between-ish.
	if med["Barcelona"] <= med["NorthCarolina"] {
		t.Errorf("Barcelona %.1f should beat NC %.1f", med["Barcelona"], med["NorthCarolina"])
	}
	if med["Barcelona"] < 1.5*med["NorthCarolina"] {
		paper := Paper("Figure 6a", "Barcelona", "median download") /
			Paper("Figure 6a", "NorthCarolina", "median download")
		t.Errorf("Barcelona/NC ratio %.2f too small (paper ~%.0fx)", med["Barcelona"]/med["NorthCarolina"], paper)
	}
}

func TestFigure6bDiurnalSwing(t *testing.T) {
	pts := quickFigure6b(t)
	if len(pts) < 20 {
		t.Fatalf("only %d samples", len(pts))
	}
	// Compare overnight (00-06 local=UTC+1 ~ 23-05 UTC) vs evening (18-23).
	var night, evening []float64
	for _, p := range pts {
		h := p.Wall.Hour() + 1 // UK local
		switch {
		case h%24 >= 0 && h%24 < 6:
			night = append(night, p.DownMbps)
		case h%24 >= 18 && h%24 < 24:
			evening = append(evening, p.DownMbps)
		}
	}
	if len(night) == 0 || len(evening) == 0 {
		t.Skip("window too short to cover both day parts")
	}
	// Individual runs are a heavy-tailed mixture: any run that lands in a
	// degraded-link window collapses to near zero regardless of hour (the
	// paper's time series shows the same dips). The diurnal claim is about
	// the achievable-throughput envelope, so compare per-band upper
	// quartiles rather than means, which ~25 samples cannot estimate
	// robustly under that mixture.
	nightP75 := stats.Quantile(night, 0.75)
	eveningP75 := stats.Quantile(evening, 0.75)
	if nightP75 < 1.5*eveningP75 {
		t.Errorf("night p75 %.1f not >= 1.5x evening p75 %.1f (paper: >%gx swing)",
			nightP75, eveningP75, Paper("Figure 6b", "UK", "diurnal download swing"))
	}
}

func TestFigure6cLossTail(t *testing.T) {
	res := quickFigure6c(t)
	if len(res.LossPcts) < 20 {
		t.Fatalf("only %d runs", len(res.LossPcts))
	}
	// Loss-tail shape: a nontrivial fraction of runs sees >= 5% loss, and
	// the maximum is dramatic.
	if res.CCDFAt5 < 0.03 || res.CCDFAt5 > 0.4 {
		t.Errorf("CCDF(5%%) = %.3f, want roughly the paper's %g", res.CCDFAt5, Paper("Figure 6c", "London", "P(loss>=5%)"))
	}
	if res.MaxPct < 15 {
		t.Errorf("max loss %.1f%%, want a heavy tail (paper ~%g%%)", res.MaxPct, Paper("Figure 6c", "London", "max loss"))
	}
	if res.CCDFAt10 > res.CCDFAt5 {
		t.Error("CCDF must be non-increasing")
	}
}

func TestFigure7LossClumpsAtLoSExit(t *testing.T) {
	res := quickFigure7(t)
	if len(res.LossPct) != 720 {
		t.Fatalf("series length = %d", len(res.LossPct))
	}
	if len(res.DistanceKm) < 2 {
		t.Fatalf("only %d serving satellites in 12 minutes", len(res.DistanceKm))
	}
	// Loss concentrates around serving-satellite changes: compare the mean
	// loss within 10s after a serving change vs elsewhere.
	changeSecs := map[int]bool{}
	prev := res.Serving[0]
	for sec, name := range res.Serving {
		if name != prev {
			for d := 0; d < 10 && sec+d < len(res.LossPct); d++ {
				changeSecs[sec+d] = true
			}
			prev = name
		}
	}
	if len(changeSecs) == 0 {
		t.Skip("no handover in window")
	}
	var nearSum, farSum float64
	var nearN, farN int
	for sec, l := range res.LossPct {
		if changeSecs[sec] {
			nearSum += l
			nearN++
		} else {
			farSum += l
			farN++
		}
	}
	near := nearSum / float64(nearN)
	far := farSum / float64(max(1, farN))
	if near <= far {
		t.Errorf("loss near handovers (%.2f%%) not above background (%.2f%%)", near, far)
	}
}

func TestFigure8CCOrdering(t *testing.T) {
	rows := quickFigure8(t)
	byName := map[string]Fig8Row{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	// BBR leads on Starlink and everything trails it.
	bbr := byName["bbr"]
	for _, other := range []string{"cubic", "reno", "veno", "vegas"} {
		if byName[other].Starlink >= bbr.Starlink {
			t.Errorf("%s (%.2f) should trail BBR (%.2f) on Starlink", other, byName[other].Starlink, bbr.Starlink)
		}
	}
	// Vegas is the worst on Starlink.
	for _, other := range []string{"bbr", "cubic", "reno", "veno"} {
		if byName["vegas"].Starlink >= byName[other].Starlink {
			t.Errorf("vegas (%.2f) should be worst on Starlink (vs %s %.2f)",
				byName["vegas"].Starlink, other, byName[other].Starlink)
		}
	}
	// On WiFi the loss-based algorithms all perform well.
	for _, name := range []string{"bbr", "cubic", "reno"} {
		if byName[name].WiFi < 0.6 {
			t.Errorf("%s on WiFi = %.2f, want >= 0.6", name, byName[name].WiFi)
		}
	}
	// Every algorithm does relatively better on WiFi than on Starlink.
	for _, name := range []string{"cubic", "reno", "veno", "vegas"} {
		if byName[name].Starlink >= byName[name].WiFi {
			t.Errorf("%s: starlink %.2f >= wifi %.2f", name, byName[name].Starlink, byName[name].WiFi)
		}
	}
}

func TestAblationLossModel(t *testing.T) {
	rows := quickAblation(t)
	byName := map[string]AblationLossRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
		if r.Bursty <= 0 || r.IID <= 0 {
			t.Errorf("%s: zero throughput (%+v)", r.Algorithm, r)
		}
	}
	// The design claim: bursty loss is kinder to loss-based CC than i.i.d.
	// loss at the same mean rate, because bursts cost one window cut while
	// scattered losses cost many.
	if byName["cubic"].Bursty <= byName["cubic"].IID {
		t.Errorf("cubic: bursty %.1f should beat iid %.1f at equal mean loss",
			byName["cubic"].Bursty, byName["cubic"].IID)
	}
}

func TestAblationHandoverPolicy(t *testing.T) {
	rows := quickHandoverAblation(t)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanLossPct < 0 {
			t.Errorf("%s: negative loss", r.Policy)
		}
	}
}

func TestReportsRender(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer

	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	ReportTable1(&buf, t1)
	ReportFigure1(&buf, s.Figure1())
	f3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	ReportFigure3(&buf, f3)
	f4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	ReportFigure4(&buf, f4)

	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 1", "Figure 3", "Figure 4", "London", "Moderate Rain"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestFigure7Attribution(t *testing.T) {
	res := quickFigure7(t)
	// The paper's claim, quantified: loss is overrepresented near handovers.
	if res.Attribution.Lift <= 1.5 {
		t.Errorf("loss-near-handover lift = %.2f, want clearly > 1", res.Attribution.Lift)
	}
	if res.LossHandoverCorrelation <= 0 {
		t.Errorf("loss/handover correlation = %.2f, want positive", res.LossHandoverCorrelation)
	}
}

func TestConfoundingAnalysis(t *testing.T) {
	s := quickStudy(t)
	res, err := s.ConfoundingAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if res.Users < 2 {
		t.Fatalf("users = %d", res.Users)
	}
	// The paper's Section 3.1 argument: device heterogeneity makes PLT
	// vary more across users than PTT does.
	if res.PLTBetweenUserCV <= res.PTTBetweenUserCV {
		t.Errorf("PLT between-user CV %.3f not above PTT's %.3f — the confounding argument fails",
			res.PLTBetweenUserCV, res.PTTBetweenUserCV)
	}
	if res.ComputeShareSpread <= 0 || res.ComputeShareSpread >= 1 {
		t.Errorf("compute-share spread = %.3f", res.ComputeShareSpread)
	}
}
