package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 {
		t.Fatal("empty N != 0")
	}
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) {
		t.Fatal("empty accumulator should return NaN summaries")
	}
	if a.CI95() != 0 {
		t.Fatal("empty CI95 should be 0")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(5)
	if a.Mean() != 5 || a.Min() != 5 || a.Max() != 5 {
		t.Fatalf("single obs: mean=%g min=%g max=%g", a.Mean(), a.Min(), a.Max())
	}
	if !math.IsNaN(a.Variance()) {
		t.Fatal("variance of one obs should be NaN")
	}
	if a.CI95() != 0 {
		t.Fatal("CI95 of one obs should be 0")
	}
}

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %g", a.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if !almost(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %g", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min=%g max=%g", a.Min(), a.Max())
	}
	if !almost(a.Sum(), 40, 1e-9) {
		t.Fatalf("sum = %g", a.Sum())
	}
}

func TestCI95TwoPoints(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{0, 2})
	// sd = sqrt(2), se = 1, t(1) = 12.706
	if !almost(a.CI95(), 12.706, 1e-9) {
		t.Fatalf("CI95 = %g", a.CI95())
	}
}

func TestCI95LargeN(t *testing.T) {
	var a Accumulator
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 2)) // alternating 0/1, sd ~ 0.5
	}
	se := a.StdDev() / math.Sqrt(1000)
	if !almost(a.CI95(), 1.96*se, 1e-9) {
		t.Fatalf("CI95 = %g, want %g", a.CI95(), 1.96*se)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("tCritical95 not non-increasing at df=%d: %g > %g", df, v, prev)
		}
		prev = v
	}
	if tCritical95(1000) != 1.96 {
		t.Fatalf("large-df critical = %g", tCritical95(1000))
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Mean: 3.14159, Half: 0.5, N: 10}
	if got := iv.String(); got != "3.14 ± 0.50 (n=10)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMeanHelpers(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("Mean helper wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almost(got, tc.want, 1e-12) {
			t.Fatalf("At(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	c := NewCDF(s(xs))
	xs[0] = 100
	if got := c.At(3); !almost(got, 1, 1e-12) {
		t.Fatalf("CDF aliased its input: At(3)=%g", got)
	}
}

func s(xs []float64) []float64 { return xs }

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("median = %g", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %g", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("q1 = %g", got)
	}
	if !math.IsNaN(c.Quantile(1.5)) {
		t.Fatal("out-of-range quantile should be NaN")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.At(1)) || !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Fatal("empty CDF should return NaN")
	}
	if c.Curve(10) != nil {
		t.Fatal("empty CDF curve should be nil")
	}
}

func TestCDFCurve(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := c.Curve(11)
	if len(pts) != 11 {
		t.Fatalf("curve length %d", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 9 {
		t.Fatalf("curve endpoints %g..%g", pts[0].X, pts[len(pts)-1].X)
	}
	if pts[len(pts)-1].F != 1 {
		t.Fatalf("curve should end at F=1, got %g", pts[len(pts)-1].F)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].F < pts[i-1].F {
			t.Fatal("curve not monotone")
		}
	}
}

// Property: CDF is monotone non-decreasing and bounded in [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		if math.IsNaN(probe) || math.IsInf(probe, 0) {
			return true
		}
		c := NewCDF(raw)
		f1 := c.At(probe)
		f2 := c.At(probe + 1)
		return f1 >= 0 && f1 <= 1 && f2 >= f1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and At are consistent: At(Quantile(q)) >= q.
func TestQuickQuantileConsistency(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q := float64(qRaw) / 255
		c := NewCDF(raw)
		x := c.Quantile(q)
		return c.At(x) >= q-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Welford mean matches naive mean.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		clean := raw[:0:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, v := range clean {
			a.Add(v)
			sum += v
		}
		naive := sum / float64(len(clean))
		return math.Abs(a.Mean()-naive) < 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 5, 9.9, -3, 15} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	// -3 clamps to bin 0; 15 clamps to bin 4.
	if h.Counts[0] != 3 { // 0, 1.9, -3
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9, 15
		t.Fatalf("bin4 = %d", h.Counts[4])
	}
	if !almost(h.BinCenter(0), 1, 1e-12) {
		t.Fatalf("BinCenter(0) = %g", h.BinCenter(0))
	}
	if !almost(h.Fraction(0), 3.0/7.0, 1e-12) {
		t.Fatalf("Fraction(0) = %g", h.Fraction(0))
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Fraction(0) != 0 {
		t.Fatal("empty histogram fraction should be 0")
	}
}

func TestCDFAgainstSort(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	c := NewCDF(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, v := range sorted {
		want := float64(i+1) / float64(len(sorted))
		if got := c.At(v); !almost(got, want, 1e-12) {
			t.Fatalf("At(%g) = %g, want %g", v, got, want)
		}
	}
}

// Fraction returns the fraction of observations in bin i, or 0 when empty.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Min returns the smallest observation, or NaN when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Sum returns n·mean, the total of all observations.
func (a *Accumulator) Sum() float64 { return float64(a.n) * a.mean }

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }
