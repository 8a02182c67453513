// Command speedtest runs the Librespeed-style speedtest the browser
// extension embedded, against a simulated Starlink (or terrestrial) path
// from any of the study's ten cities.
//
// Usage:
//
//	speedtest [-city London] [-isp starlink|broadband|cellular]
//	          [-server iowa|closest] [-at 2022-04-11T20:00:00Z] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
	"starlinkview/internal/weather"
)

func main() {
	var (
		cityName = flag.String("city", "London", "vantage city (London, Seattle, Sydney, Toronto, Warsaw, Barcelona, NorthCarolina, Wiltshire, Berlin, Denver)")
		ispName  = flag.String("isp", "starlink", "access technology: starlink, broadband or cellular")
		server   = flag.String("server", "iowa", "measurement server: iowa (the paper's browser speedtest target) or closest")
		atStr    = flag.String("at", "2022-04-11T20:00:00Z", "wall-clock time of the test (RFC 3339)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	city, err := ispnet.CityByName(*cityName)
	if err != nil {
		fatal(err)
	}
	at, err := time.Parse(time.RFC3339, *atStr)
	if err != nil {
		fatal(fmt.Errorf("parsing -at: %w", err))
	}
	var kind ispnet.Kind
	switch *ispName {
	case "starlink":
		kind = ispnet.Starlink
	case "broadband":
		kind = ispnet.Broadband
	case "cellular":
		kind = ispnet.Cellular
	default:
		fatal(fmt.Errorf("unknown ISP %q", *ispName))
	}
	site := ispnet.IowaDC
	if *server == "closest" {
		site = ispnet.ClosestDC(city)
	}

	cfg := ispnet.Config{
		Kind: kind, City: city, Server: site, Short: true, Seed: *seed,
	}
	if kind == ispnet.Starlink {
		epoch := at.Add(-time.Hour) // give the link an hour of history
		shell := orbit.Shell1(epoch)
		constellation, err := orbit.GenerateShell(shell)
		if err != nil {
			fatal(err)
		}
		wx, err := weather.NewGenerator(city.Climatology, *seed)
		if err != nil {
			fatal(err)
		}
		cfg.Constellation = constellation
		cfg.Epoch = epoch
		cfg.Weather = wx
	}
	built, err := ispnet.Build(cfg)
	if err != nil {
		fatal(err)
	}

	sim := netsim.NewSim(*seed)
	if kind == ispnet.Starlink {
		sim.RunUntil(time.Hour) // advance to the requested instant
	}
	fmt.Printf("speedtest: %s over %s -> %s\n", city.Name, kind, site.Name)
	res, err := measure.Speedtest(sim, built.Path, measure.SpeedtestOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  ping    %6.1f ms (jitter %.1f ms)\n", res.PingMs, res.JitterMs)
	fmt.Printf("  down    %6.1f Mbps\n", res.DownMbps)
	fmt.Printf("  up      %6.1f Mbps\n", res.UpMbps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "speedtest:", err)
	os.Exit(1)
}
