package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	vals := make([]float64, 101) // 0..100, so the q-quantile is 100q
	for i := range vals {
		vals[100-i] = float64(i)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := percentile(vals, q); math.Abs(got-100*q) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, 100*q)
		}
	}
	if vals[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// One slow slice moves the mean by its full weight and the median not at
// all: the reason every rate is a median of slices.
func TestMedianIgnoresOneSlowSlice(t *testing.T) {
	quiet := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := append([]float64(nil), quiet...)
	noisy[3] = 40
	if math.Abs(median(noisy)-median(quiet)) > 0.5 {
		t.Errorf("median moved from %v to %v on one slow slice", median(quiet), median(noisy))
	}
	mean := func(v []float64) float64 {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	if mean(quiet)-mean(noisy) < 5 {
		t.Errorf("the mean should have dropped by 6: %v to %v", mean(quiet), mean(noisy))
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true},
		{99, 0.90, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{10000, 0.999, true},
		{3000, 0.999, false},
		{20, 0.5, true},
		{19, 0.5, false},
	}
	for _, c := range cases {
		vals := make([]float64, c.n)
		for i := range vals {
			vals[i] = float64(i)
		}
		got, ok := tailPercentile(vals, c.q)
		if ok != c.want {
			t.Errorf("n=%d q=%v: supported=%v, want %v", c.n, c.q, ok, c.want)
		}
		if !ok && got != 0 {
			t.Errorf("n=%d q=%v: unsupported tail reads %v, want 0", c.n, c.q, got)
		}
		if ok && got != percentile(vals, c.q) {
			t.Errorf("n=%d q=%v: supported tail %v differs from percentile %v", c.n, c.q, got, percentile(vals, c.q))
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "op", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 50, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 70, Parent: 0},  // overlaps a by 20
		{Name: "b", StartNs: 90, EndNs: 130, Parent: 0}, // runs past its parent
		{Name: "leaf", StartNs: 35, EndNs: 45, Parent: 2},
	}
	got := selfTimes(spans)
	if lt := got["op"]; lt.Total != 100 || lt.Self != 100-60-10 {
		t.Errorf("op: total %d self %d, want 100 and 30", lt.Total, lt.Self)
	}
	if lt := got["b"]; lt.Count != 2 || lt.Self != 40-10+40 {
		t.Errorf("b: count %d self %d, want 2 and 70", lt.Count, lt.Self)
	}
}

func TestMeterCountsOnlyTimedSections(t *testing.T) {
	var m meter
	for i := 0; i < 3; i++ {
		m.begin()
		time.Sleep(5 * time.Millisecond)
		m.end()
		time.Sleep(20 * time.Millisecond) // untimed
	}
	if m.total.wall < 15*time.Millisecond || m.total.wall > 40*time.Millisecond {
		t.Errorf("metered wall %v, want the three 5 ms sections only", m.total.wall)
	}
}
