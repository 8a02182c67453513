package core

import (
	"math"
	"strings"
	"testing"
)

func TestPaperValues(t *testing.T) {
	type key struct{ exhibit, subject, quantity string }
	seen := map[key]bool{}
	for _, r := range paperTable {
		k := key{r.exhibit, r.subject, r.quantity}
		if seen[k] {
			t.Errorf("%v: duplicate key", k)
		}
		seen[k] = true
		if r.unit == "" || r.section == "" {
			t.Errorf("%v: unit %q, section %q; want both", k, r.unit, r.section)
		}
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) || r.value <= 0 {
			t.Errorf("%v: value %g, want finite and positive", k, r.value)
		}
	}

	// The paper gives London's Figure 6a median only as "between" the other
	// two nodes, so the table has no such row.
	defer func() {
		msg, _ := recover().(string)
		for _, part := range []string{"Figure 6a", "London", "median download"} {
			if !strings.Contains(msg, part) {
				t.Errorf("panic %q does not name %q", msg, part)
			}
		}
	}()
	Paper("Figure 6a", "London", "median download")
}
