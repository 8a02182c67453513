// Package stats provides the small statistical toolkit the study uses to
// turn raw measurement samples into the paper's tables and figures:
// empirical CDFs and CCDFs, quantiles, five-number summaries for box plots,
// and a mergeable streaming quantile sketch.
//
// All functions are deterministic and operate on copies; callers' slices are
// never reordered.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by constructors that require at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// Quantile returns the q-quantile (0 <= q <= 1) of the samples using linear
// interpolation between closest ranks. It returns NaN for an empty slice.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of the samples.
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Min returns the smallest sample, or NaN for an empty slice.
func Min(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample, or NaN for an empty slice.
func Max(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDev returns the population standard deviation, or NaN for an empty slice.
func StdDev(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	mu := Mean(samples)
	ss := 0.0
	for _, v := range samples {
		d := v - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)))
}

// Summary is a five-number summary plus mean and count, the shape of every
// box plot in the paper (Figure 4) and of Table 2's min/median/max rows.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary over the samples.
func Summarize(samples []float64) (Summary, error) {
	if len(samples) == 0 {
		return Summary{}, ErrNoSamples
	}
	return Summary{
		N:      len(samples),
		Min:    Min(samples),
		Q1:     Quantile(samples, 0.25),
		Median: Median(samples),
		Q3:     Quantile(samples, 0.75),
		Max:    Max(samples),
		Mean:   Mean(samples),
	}, nil
}

// String implements fmt.Stringer with a compact box-plot style rendering.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f mean=%.1f",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over the samples.
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// N returns the number of underlying samples.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x, so we
	// advance over equal values to implement <=.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// CCDFAt returns P(X >= x), the complementary CDF the paper plots in
// Figure 6(c).
func (c *CDF) CCDFAt(x float64) float64 {
	i := sort.SearchFloat64s(c.sorted, x)
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
}

// InverseAt returns the q-quantile of the underlying samples.
func (c *CDF) InverseAt(q float64) float64 { return Quantile(c.sorted, q) }

// Points returns up to n evenly spaced (value, cumulative probability) points
// suitable for plotting the CDF as a line series.
func (c *CDF) Points(n int) []Point {
	if n <= 0 || len(c.sorted) == 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(1, n-1)
		pts = append(pts, Point{
			X: c.sorted[idx],
			Y: float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// Point is a plottable (x, y) pair.
type Point struct{ X, Y float64 }
