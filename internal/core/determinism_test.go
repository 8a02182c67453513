package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"starlinkview/internal/plot"
)

func plotWriteLine(w io.Writer, c plot.Chart) error   { return plot.WriteLineSVG(w, c) }
func plotWriteBox(w io.Writer, c plot.BoxChart) error { return plot.WriteBoxSVG(w, c) }
func plotWriteBar(w io.Writer, c plot.BarChart) error { return plot.WriteBarSVG(w, c) }

// TestStudyDeterminism: two studies with identical configuration produce
// byte-identical Table 1 reports — the property README promises.
func TestStudyDeterminism(t *testing.T) {
	render := func() string {
		cfg := QuickConfig()
		cfg.BrowsingDays = 14
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Table1()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ReportTable1(&buf, rows)
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("same-seed studies diverge:\n%s\nvs\n%s", a, b)
	}
}

// TestSeedChangesResults: a different seed produces different data (the
// randomness is live, not vestigial).
func TestSeedChangesResults(t *testing.T) {
	render := func(seed int64) string {
		cfg := QuickConfig()
		cfg.Seed = seed
		cfg.BrowsingDays = 14
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Table1()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ReportTable1(&buf, rows)
		return buf.String()
	}
	if render(1) == render(2) {
		t.Error("different seeds produced identical tables")
	}
}

// TestAllReportsRender drives every report function over the shared study.
func TestAllReportsRender(t *testing.T) {
	var buf bytes.Buffer
	ReportTable2(&buf, quickTable2(t))
	ReportTable3(&buf, quickTable3(t))
	ReportFigure5(&buf, quickFigure5(t))
	ReportFigure6a(&buf, quickFigure6a(t))
	ReportFigure6b(&buf, quickFigure6b(t))
	ReportFigure6c(&buf, quickFigure6c(t))
	ReportFigure7(&buf, quickFigure7(t))
	ReportFigure8(&buf, quickFigure8(t))

	out := buf.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Figure 5", "Figure 6a", "Figure 6b",
		"Figure 6c", "Figure 7", "Figure 8", "bbr", "starlink",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered reports missing %q", want)
		}
	}
	// The sparkline must contain only its level runes.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "DL ") {
			body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "DL "))
			for _, r := range body {
				if !strings.ContainsRune("_.-=^", r) {
					t.Errorf("sparkline contains unexpected rune %q", r)
				}
			}
		}
	}
}

// TestFigureChartsRender drives every chart converter over real results and
// validates the resulting SVGs are well-formed.
func TestFigureChartsRender(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer

	f3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if err := plotWriteLine(&buf, Fig3Chart(f3, "London")); err != nil {
		t.Errorf("fig3 chart: %v", err)
	}
	f4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if err := plotWriteBox(&buf, Fig4Chart(f4)); err != nil {
		t.Errorf("fig4 chart: %v", err)
	}
	if err := plotWriteLine(&buf, Fig5Chart(quickFigure5(t))); err != nil {
		t.Errorf("fig5 chart: %v", err)
	}
	if err := plotWriteLine(&buf, Fig6aChart(quickFigure6a(t))); err != nil {
		t.Errorf("fig6a chart: %v", err)
	}
	if err := plotWriteLine(&buf, Fig6bChart(quickFigure6b(t))); err != nil {
		t.Errorf("fig6b chart: %v", err)
	}
	if err := plotWriteLine(&buf, Fig6cChart(quickFigure6c(t))); err != nil {
		t.Errorf("fig6c chart: %v", err)
	}
	if err := plotWriteLine(&buf, Fig7Chart(quickFigure7(t))); err != nil {
		t.Errorf("fig7 chart: %v", err)
	}
	if err := plotWriteBar(&buf, Fig8Chart(quickFigure8(t))); err != nil {
		t.Errorf("fig8 chart: %v", err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("no SVG produced")
	}
}
