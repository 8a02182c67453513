package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"starlinkview/internal/core"
)

// exhibit is one paper exhibit of the timed set: compute it from the study
// and render it with its Report function, so the digest covers every number
// the reproduction prints.
type exhibit struct {
	name string
	run  func(s *core.Study, w io.Writer) error
}

func show[T any](w io.Writer, compute func() (T, error), render func(io.Writer, T)) error {
	v, err := compute()
	if err != nil {
		return err
	}
	render(w, v)
	return nil
}

// The set one op reproduces, in two halves. The browsing exhibits come from
// a study seeded by the run. The network exhibits come from a study with
// QuickConfig's own seed whatever the run's: what a simulated speedtest or
// iperf costs depends on the weather and handovers the seed draws (TotalAlloc
// per set differed by ±20% between seeds 1..10), so seeding them would make
// every seed a workload of a different size. Figure 8 is in neither half: it
// takes several times the rest together and is cc-bound, so it would drown
// every other layer; it runs in the traced pass only.
var browsingExhibits = []exhibit{
	{"table1", func(s *core.Study, w io.Writer) error { return show(w, s.Table1, core.ReportTable1) }},
	{"figure3", func(s *core.Study, w io.Writer) error { return show(w, s.Figure3, core.ReportFigure3) }},
	{"figure4", func(s *core.Study, w io.Writer) error { return show(w, s.Figure4, core.ReportFigure4) }},
}

var table3 = exhibit{"table3", func(s *core.Study, w io.Writer) error { return show(w, s.Table3, core.ReportTable3) }}

var networkExhibits = []exhibit{
	{"figure5", func(s *core.Study, w io.Writer) error { return show(w, s.Figure5, core.ReportFigure5) }},
	{"table2", func(s *core.Study, w io.Writer) error { return show(w, s.Table2, core.ReportTable2) }},
	table3,
	{"figure6a", func(s *core.Study, w io.Writer) error { return show(w, s.Figure6a, core.ReportFigure6a) }},
	{"figure7", func(s *core.Study, w io.Writer) error { return show(w, s.Figure7, core.ReportFigure7) }},
}

var figure8 = exhibit{"figure8", func(s *core.Study, w io.Writer) error { return show(w, s.Figure8, core.ReportFigure8) }}

type simExhibits struct {
	e      *env
	digest string // of the first timed set's report; every later set must match
}

func networkConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

func (w *simExhibits) browsingConfig() core.Config {
	cfg := networkConfig()
	cfg.Seed = int64(w.e.seed)
	return cfg
}

// runExhibits builds a fresh study and reproduces exs from it into out,
// under spans when tr is set.
func runExhibits(cfg core.Config, exs []exhibit, out io.Writer, tr *tracer, sp spanRef) (*core.Study, error) {
	ns := tr.start("core.new_study", sp, 0)
	s, err := core.NewStudy(cfg)
	ns.end()
	for _, ex := range exs {
		if err != nil {
			break
		}
		es := tr.start("core."+ex.name, sp, 0)
		err = ex.run(s, out)
		es.end()
	}
	return s, err
}

func setupSimExhibits(e *env) (instance, error) {
	w := &simExhibits{e: e}
	// Warm-up, fixed work: the browsing exhibits and Table 3, about a third
	// of a set, which between them reach every simulator package (browsing
	// over orbit, bentpipe and webperf; speedtests over netsim and cc).
	if _, err := runExhibits(w.browsingConfig(), browsingExhibits, io.Discard, nil, noParent); err != nil {
		return nil, err
	}
	if _, err := runExhibits(networkConfig(), []exhibit{table3}, io.Discard, nil, noParent); err != nil {
		return nil, err
	}
	return w, nil
}

// op reproduces one exhibit set from fresh studies. A record is one
// extension.Record of the set's browsing campaign.
func (w *simExhibits) op(m *meter, sp spanRef, tr *tracer) (int64, error) {
	m.begin()
	var out bytes.Buffer
	s, err := runExhibits(w.browsingConfig(), browsingExhibits, &out, tr, sp)
	if err == nil {
		_, err = runExhibits(networkConfig(), networkExhibits, &out, tr, sp)
	}
	m.end()
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(out.Bytes())
	digest := hex.EncodeToString(sum[:])
	if w.digest == "" {
		w.digest = digest
	} else if digest != w.digest {
		return 0, fmt.Errorf("exhibit report digest %s differs from the first set's %s", digest, w.digest)
	}
	return int64(len(s.Collector.Records())), nil
}

// simNominalOp is what one exhibit set takes, near enough: a 15 s phase is
// three sets.
const simNominalOp = 5 * time.Second

func (w *simExhibits) run(d time.Duration, tr *tracer) (*phase, error) {
	return fixedWork(fixedOps(d, simNominalOp), tr, w.op), nil
}

func (w *simExhibits) verify(p *phase) error {
	if p.failed > 0 {
		return p.firstErr
	}
	fmt.Printf("exhibit report digest %s (identical across %d sets)\n", w.digest, p.attempted)
	return nil
}

func (w *simExhibits) close() error { return nil }
