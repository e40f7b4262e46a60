// Package stats provides the statistical primitives used to summarise
// simulation output: streaming moment accumulators, 95% confidence
// intervals with Student-t critical values, empirical CDFs and quantiles,
// and simple fixed-width histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes count, mean and variance in a single streaming pass
// using Welford's numerically stable algorithm. The zero value is ready to
// use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddAll incorporates every observation in xs.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations added.
func (a *Accumulator) N() int { return a.n }

// Mean returns the arithmetic mean, or NaN when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Max returns the largest observation, or NaN when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using the Student-t distribution. It returns 0 with fewer than two
// observations.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	se := a.StdDev() / math.Sqrt(float64(a.n))
	return tCritical95(a.n-1) * se
}

// Interval describes a mean together with a symmetric confidence half-width.
type Interval struct {
	Mean float64
	Half float64 // half-width of the 95% CI
	N    int
}

// Summary returns the accumulator's mean and 95% CI as an Interval.
func (a *Accumulator) Summary() Interval {
	return Interval{Mean: a.Mean(), Half: a.CI95(), N: a.n}
}

// String renders the interval as "mean ± half (n=N)".
func (iv Interval) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", iv.Mean, iv.Half, iv.N)
}

// tTable holds two-sided 95% Student-t critical values for small degrees of
// freedom; index i corresponds to i degrees of freedom.
var tTable = []float64{
	math.NaN(),
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% critical value of the Student-t
// distribution with df degrees of freedom, interpolating to the normal
// critical value 1.96 for large df.
func tCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tTable) {
		return tTable[df]
	}
	switch {
	case df < 40:
		return 2.030
	case df < 60:
		return 2.000
	case df < 120:
		return 1.980
	default:
		return 1.960
	}
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	var a Accumulator
	a.AddAll(xs)
	return a.Mean()
}

// CDF is an empirical cumulative distribution function built from a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input slice is copied.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns the fraction of the sample that is <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th empirical quantile for q in [0, 1], using the
// nearest-rank method. It returns NaN on an empty sample or q outside [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	if q == 0 {
		return c.sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(c.sorted))))
	if rank < 1 {
		rank = 1
	}
	return c.sorted[rank-1]
}

// Min returns the smallest sample value, or NaN when empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample value, or NaN when empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Point is one (x, F(x)) sample of a CDF curve.
type Point struct {
	X float64
	F float64
}

// Curve returns n evenly spaced points spanning [Min, Max], suitable for
// plotting the CDF as the paper's Figures 6 and 7 do. With n < 2 or an
// empty sample it returns nil.
func (c *CDF) Curve(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	lo, hi := c.Min(), c.Max()
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, F: c.At(x)}
	}
	return pts
}

// Histogram counts observations in fixed-width bins spanning [Lo, Hi).
// Observations outside the range land in the first or last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
// It panics if bins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("stats: NewHistogram with bins=%d", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram with lo=%g hi=%g", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation, clamping out-of-range values to the edge
// bins.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	i := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
	h.total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}
