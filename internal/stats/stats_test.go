package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := Quantile(s, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := Quantile(s, 0.1); got != 1 {
		t.Errorf("Quantile(0.1) = %v, want 1", got)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("Quantile single = %v, want 7", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Quantile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("Quantile mutated input: %v", s)
	}
}

func TestMeanMinMaxStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(s); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Min(s); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := Max(s); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := StdDev(s); got != 2 { // classic example set
		t.Errorf("StdDev = %v, want 2", got)
	}
	for _, f := range []func([]float64) float64{Mean, Min, Max, StdDev} {
		if !math.IsNaN(f(nil)) {
			t.Error("empty-slice statistic should be NaN")
		}
	}
}

func TestSummarize(t *testing.T) {
	sum, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 5 || sum.Min != 1 || sum.Median != 3 || sum.Max != 5 {
		t.Errorf("unexpected summary: %+v", sum)
	}
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Errorf("Summarize(nil) err = %v, want ErrNoSamples", err)
	}
	if sum.String() == "" {
		t.Error("Summary.String should not be empty")
	}
}

func TestCDFAtAndCCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 {
		t.Errorf("N = %d, want 4", c.N())
	}
	cases := []struct {
		x        float64
		at, ccdf float64
	}{
		{0.5, 0, 1},
		{1, 0.25, 1},
		{2, 0.75, 0.75},
		{3, 1, 0.25},
		{4, 1, 0},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.at {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.at)
		}
		if got := c.CCDFAt(cse.x); got != cse.ccdf {
			t.Errorf("CCDFAt(%v) = %v, want %v", cse.x, got, cse.ccdf)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrNoSamples {
		t.Errorf("NewCDF(nil) err = %v, want ErrNoSamples", err)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c, err := NewCDF(vals)
		if err != nil {
			return false
		}
		xs := append([]float64(nil), vals...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			// CDF + CCDF accounting: At uses <=, CCDFAt uses >=, so the two
			// overlap by the probability mass at exactly x and must sum to
			// at least 1.
			if c.At(x)+c.CCDFAt(x) < 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	c, _ := NewCDF(vals)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points(10) len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Errorf("points not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	if got := c.Points(0); got != nil {
		t.Errorf("Points(0) = %v, want nil", got)
	}
	if got := c.Points(1000); len(got) != 100 {
		t.Errorf("Points(1000) len = %d, want clamped to 100", len(got))
	}
}

func TestCDFInverseMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	c, _ := NewCDF(vals)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got, want := c.InverseAt(q), Quantile(vals, q); got != want {
			t.Errorf("InverseAt(%v) = %v, want %v", q, got, want)
		}
	}
}
