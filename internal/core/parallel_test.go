package core

import (
	"bytes"
	"testing"
	"time"

	"starlinkview/internal/cc"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
)

// renderAtWorkers runs a representative slice of the study at a given
// worker count and returns the concatenated reports: the browsing campaign
// (Table 1, the SimulateUsers merge path) plus the two cheapest runIndexed
// fan-outs (Figure 5's traceroutes, the ISL extension's pings). The heavier
// drivers (Table 2, Figure 8) share the exact same runIndexed machinery and
// stay affordable for the -race sweep this way.
func renderAtWorkers(t *testing.T, workers int) string {
	t.Helper()
	cfg := QuickConfig()
	cfg.BrowsingDays = 7
	cfg.Workers = workers
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if rows, err := s.Table1(); err != nil {
		t.Fatal(err)
	} else {
		ReportTable1(&buf, rows)
	}
	if res, err := s.Figure5(); err != nil {
		t.Fatal(err)
	} else {
		ReportFigure5(&buf, res)
	}
	if rows, err := s.ExtensionISL(); err != nil {
		t.Fatal(err)
	} else {
		ReportExtensionISL(&buf, rows)
	}
	return buf.String()
}

// TestWorkersDoNotChangeResults: the parallel drivers are advertised as
// byte-identical to serial execution at any worker count, including counts
// that don't divide the task lists evenly.
func TestWorkersDoNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report comparison is slow")
	}
	serial := renderAtWorkers(t, 1)
	for _, workers := range []int{4, 7} {
		if got := renderAtWorkers(t, workers); got != serial {
			t.Errorf("Workers=%d diverges from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

// TestBruteForceMatchesEngine: the pruned constellation engine must not
// change study-level results relative to the exhaustive scan it replaced.
func TestBruteForceMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report comparison is slow")
	}
	render := func(brute bool) string {
		cfg := QuickConfig()
		cfg.BrowsingDays = 7
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Constellation.BruteForce = brute
		rows, err := s.Table1()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ReportTable1(&buf, rows)
		return buf.String()
	}
	if engine, brute := render(false), render(true); engine != brute {
		t.Errorf("engine Table 1 diverges from brute force:\n%s\nvs\n%s", engine, brute)
	}
}

// TestParallelFlowsRaceClean drives concurrent independent simulations that
// each create CC flows, the pattern Figure 8 and Table 3 fan out under
// Workers > 1. Its job is to put cc.NewFlow, the netsim event loop and the
// study's simulator pool in front of the race detector cheaply (1 s of
// simulated bulk TCP per task, vs minutes for a full Figure 8). Each task
// runs twice, the second time on whichever pooled Sim it is handed, and
// must measure the same throughput both times and as on a new Sim.
func TestParallelFlowsRaceClean(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workers = 4
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iperf := func(sim *netsim.Sim, i int) (float64, error) {
		client := netsim.NewNode("c", "")
		server := netsim.NewNode("s", "")
		path, err := netsim.NewPath([]*netsim.Node{client, server},
			[]netsim.LinkSpec{{RateBps: 50e6, Delay: 10 * time.Millisecond, QueueByte: 250000}}, nil)
		if err != nil {
			return 0, err
		}
		res, err := measure.IperfTCPReverse(sim, path, cc.Names()[i%len(cc.Names())], time.Second)
		return res.ThroughputBps, err
	}
	got := make([][2]float64, 8)
	err = s.runIndexed(len(got), func(i int) error {
		for run := range got[i] {
			sim := s.newSim(int64(i))
			bps, err := iperf(sim, i)
			s.releaseSim(sim)
			if err != nil {
				return err
			}
			got[i][run] = bps
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.sims) > cfg.Workers {
		t.Errorf("pool holds %d idle Sims, want at most %d", len(s.sims), cfg.Workers)
	}
	for i, bps := range got {
		want, err := iperf(netsim.NewSim(int64(i)), i)
		if err != nil {
			t.Fatal(err)
		}
		if bps[0] <= 0 || bps[0] != want || bps[1] != want {
			t.Errorf("task %d moved %v b/s on pooled Sims, %v on a new one", i, bps, want)
		}
	}
}
