package core

import (
	"fmt"
	"sort"

	"starlinkview/internal/extension"
	"starlinkview/internal/ipinfo"
	"starlinkview/internal/stats"
	"starlinkview/internal/weather"
)

// Table1Cities are the three cities the paper tabulates.
var Table1Cities = []string{"London", "Seattle", "Sydney"}

// Table1 runs (if needed) the browsing campaign and reproduces Table 1.
func (s *Study) Table1() ([]extension.TableRow, error) {
	if err := s.RunBrowsing(); err != nil {
		return nil, err
	}
	return s.Collector.CityTable(Table1Cities), nil
}

// PopulationRow summarises Figure 1 for one city.
type PopulationRow struct {
	City        string
	Country     string
	Starlink    int
	NonStarlink int
}

// Figure1 reproduces the user map as a per-city population table.
func (s *Study) Figure1() []PopulationRow {
	idx := map[string]*PopulationRow{}
	var order []string
	for _, u := range s.users {
		r, ok := idx[u.City]
		if !ok {
			r = &PopulationRow{City: u.City, Country: u.Country}
			idx[u.City] = r
			order = append(order, u.City)
		}
		if u.ISP == "starlink" {
			r.Starlink++
		} else {
			r.NonStarlink++
		}
	}
	sort.Strings(order)
	out := make([]PopulationRow, 0, len(order))
	for _, c := range order {
		out = append(out, *idx[c])
	}
	return out
}

// Fig3Series is one CDF of Figure 3.
type Fig3Series struct {
	City    string
	Popular bool
	ASN     int
	N       int
	CDF     []stats.Point
	Median  float64
}

// Figure3 reproduces the popular/unpopular PTT CDFs before and after the
// egress-AS switch for London and Sydney (Seattle saw no switch).
func (s *Study) Figure3() ([]Fig3Series, error) {
	if err := s.RunBrowsing(); err != nil {
		return nil, err
	}
	var out []Fig3Series
	for _, city := range []string{"London", "Sydney"} {
		for _, popular := range []bool{true, false} {
			for _, asn := range []int{ipinfo.ASGoogle, ipinfo.ASSpaceX} {
				city, popular, asn := city, popular, asn
				samples := s.Collector.PTTSamples(func(r extension.Record) bool {
					return r.City == city && r.ISP == "starlink" &&
						r.Popular == popular && r.ASN == asn
				})
				if len(samples) == 0 {
					continue
				}
				cdf, err := stats.NewCDF(samples)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig3Series{
					City:    city,
					Popular: popular,
					ASN:     asn,
					N:       len(samples),
					CDF:     cdf.Points(60),
					Median:  stats.Median(samples),
				})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: figure 3 has no samples; did the campaign span the AS migrations?")
	}
	return out, nil
}

// Fig4Row is one weather condition's PTT distribution (a Figure 4 box).
type Fig4Row struct {
	Condition weather.Condition
	Summary   stats.Summary
}

// Figure4 reproduces the weather/PTT box plots: PTT of Google services
// accessed by Starlink users in London, grouped by weather condition.
func (s *Study) Figure4() ([]Fig4Row, error) {
	if err := s.RunBrowsing(); err != nil {
		return nil, err
	}
	var out []Fig4Row
	for _, cond := range weather.Conditions() {
		cond := cond
		samples := s.Collector.PTTSamples(func(r extension.Record) bool {
			return r.City == "London" && r.ISP == "starlink" && r.Google &&
				r.HasWx && r.Condition == cond
		})
		if len(samples) == 0 {
			continue
		}
		sum, err := stats.Summarize(samples)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig4Row{Condition: cond, Summary: sum})
	}
	if len(out) < 4 {
		return nil, fmt.Errorf("core: figure 4 covered only %d conditions; campaign too short", len(out))
	}
	return out, nil
}

// ConfoundingResult quantifies the paper's Section 3.1 argument for
// analysing PTT instead of PLT: user devices differ (compute speed, browser
// configuration), so Page Load Time varies across users even when their
// network performance is identical, while Page Transit Time isolates the
// network. The result compares the between-user spread of the two metrics.
type ConfoundingResult struct {
	// PTTBetweenUserCV and PLTBetweenUserCV are the coefficients of
	// variation (stddev/mean) of per-user median PTT and PLT across the
	// London Starlink users.
	PTTBetweenUserCV float64
	PLTBetweenUserCV float64
	// ComputeShareSpread is the spread (max-min) of the per-user share of
	// PLT that is compute-bound — the direct fingerprint of device
	// heterogeneity.
	ComputeShareSpread float64
	Users              int
}

// ConfoundingAnalysis computes the PTT-vs-PLT comparison over the campaign.
func (s *Study) ConfoundingAnalysis() (ConfoundingResult, error) {
	if err := s.RunBrowsing(); err != nil {
		return ConfoundingResult{}, err
	}
	type agg struct{ ptt, plt []float64 }
	byUser := map[string]*agg{}
	for _, r := range s.Collector.Records() {
		if r.City != "London" || r.ISP != "starlink" {
			continue
		}
		a := byUser[r.UserID]
		if a == nil {
			a = &agg{}
			byUser[r.UserID] = a
		}
		a.ptt = append(a.ptt, r.PTTMs)
		a.plt = append(a.plt, r.PLTMs)
	}
	if len(byUser) < 2 {
		return ConfoundingResult{}, fmt.Errorf("core: need >= 2 London Starlink users, have %d", len(byUser))
	}
	var pttMeds, pltMeds, shares []float64
	for _, a := range byUser {
		pm := stats.Median(a.ptt)
		lm := stats.Median(a.plt)
		pttMeds = append(pttMeds, pm)
		pltMeds = append(pltMeds, lm)
		if lm > 0 {
			shares = append(shares, (lm-pm)/lm)
		}
	}
	cv := func(v []float64) float64 {
		m := stats.Mean(v)
		if m == 0 {
			return 0
		}
		return stats.StdDev(v) / m
	}
	return ConfoundingResult{
		PTTBetweenUserCV:   cv(pttMeds),
		PLTBetweenUserCV:   cv(pltMeds),
		ComputeShareSpread: stats.Max(shares) - stats.Min(shares),
		Users:              len(byUser),
	}, nil
}
