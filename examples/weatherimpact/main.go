// Weatherimpact reproduces the Figure 4 scenario in miniature: the same
// Google-service page is fetched from a London Starlink terminal under each
// of the seven OpenWeatherMap conditions, showing how rain fade inflates the
// Page Transit Time (the paper found a ~2x median increase from clear sky to
// moderate rain).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"starlinkview/internal/bentpipe"
	"starlinkview/internal/core"
	"starlinkview/internal/ispnet"
	"starlinkview/internal/orbit"
	"starlinkview/internal/stats"
	"starlinkview/internal/tranco"
	"starlinkview/internal/weather"
	"starlinkview/internal/webperf"
)

// fixedWeather returns a generator that always reports one condition.
func fixedWeather(c weather.Condition) *weather.Generator {
	clim := weather.Climatology{Name: c.String(), MeanDwell: time.Hour}
	clim.Weights[c] = 1
	g, err := weather.NewGenerator(clim, 1)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func main() {
	epoch := time.Date(2022, 2, 1, 12, 0, 0, 0, time.UTC)
	city := ispnet.London
	constellation, err := orbit.GenerateShell(orbit.Shell1(epoch))
	if err != nil {
		log.Fatal(err)
	}
	list, err := tranco.NewList(1, 0)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	site := list.GoogleSite(rng)
	fmt.Printf("fetching %s (a Google service) from London under each condition:\n\n", site.Domain)
	fmt.Printf("%-18s %10s %10s %10s %8s %8s\n", "condition", "q1(ms)", "median", "q3(ms)", "att(dB)", "loss%")

	var clearMedian float64
	for _, cond := range weather.Conditions() {
		pipe, err := bentpipe.New(bentpipe.Config{
			Terminal: city.Loc, PoP: city.PoP,
			Constellation: constellation, Epoch: epoch,
			Weather:         fixedWeather(cond),
			DownCapacityBps: 330e6, UpCapacityBps: 28e6,
			Load: bentpipe.DiurnalLoad{Base: 0.15, Peak: 0.62, PeakHour: 21,
				UTCOffsetHours: city.UTCOffsetHours, Subscribers: city.Subscribers},
			Seed: 42,
		})
		if err != nil {
			log.Fatal(err)
		}
		var ptts []float64
		var att, loss float64
		for i := 0; i < 300; i++ {
			st := pipe.StateAt(time.Duration(i) * 17 * time.Second)
			att, loss = st.AttenuationDB, st.LossProb
			pl := webperf.LoadPage(rng, site, webperf.Access{
				RTT:        2 * st.OneWayDelay,
				JitterMean: 2 * st.JitterMean,
				DownBps:    st.DownCapacityBps,
				LossProb:   st.LossProb,
			}, webperf.Options{ClientLoc: city.Loc, CDNEdgeRTT: 4 * time.Millisecond})
			ptts = append(ptts, float64(pl.PTT())/float64(time.Millisecond))
		}
		sum, err := stats.Summarize(ptts)
		if err != nil {
			log.Fatal(err)
		}
		if cond == weather.ClearSky {
			clearMedian = sum.Median
		}
		fmt.Printf("%-18s %10.1f %10.1f %10.1f %8.2f %8.3f\n",
			cond, sum.Q1, sum.Median, sum.Q3, att, 100*loss)
	}

	// Recompute moderate rain against clear sky for the headline ratio.
	fmt.Printf("\npaper: clear-sky median %.1f ms vs moderate-rain %.1f ms (~2x);",
		core.Paper("Figure 4", "Clear Sky", "median PTT"), core.Paper("Figure 4", "Moderate Rain", "median PTT"))
	fmt.Printf(" this run's clear-sky median: %.1f ms\n", clearMedian)
}
