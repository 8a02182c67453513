package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestExtensionISL(t *testing.T) {
	rows := quickISL(t)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BentPipeRTTms <= 0 || r.ISLRTTms <= 0 || r.FibreFloorms <= 0 {
			t.Errorf("%s->%s: non-positive RTTs %+v", r.From, r.To, r)
		}
		// The ISL projection must beat the fibre floor on long paths:
		// vacuum light over the shell outruns 2/3c fibre.
		if r.ISLRTTms >= r.FibreFloorms+25 {
			t.Errorf("%s->%s: ISL %.1f not competitive with fibre floor %.1f",
				r.From, r.To, r.ISLRTTms, r.FibreFloorms)
		}
	}
	// On the longest path (Sydney -> N. Virginia) the ISL route should beat
	// today's bent-pipe architecture, the paper's conjecture.
	for _, r := range rows {
		if r.From == "Sydney" && r.ISLRTTms >= r.BentPipeRTTms {
			t.Errorf("Sydney: ISL %.1f should beat bent pipe %.1f on a transpacific path",
				r.ISLRTTms, r.BentPipeRTTms)
		}
	}
	var buf bytes.Buffer
	ReportExtensionISL(&buf, rows)
	if !strings.Contains(buf.String(), "ISL") {
		t.Error("report did not render")
	}
}
