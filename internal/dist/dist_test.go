package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSourceDifferentSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSource(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d/100 identical draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := NewSource(9).Split()
	b := NewSource(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewSource(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewSource(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewSource(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnOne(t *testing.T) {
	r := NewSource(1)
	for i := 0; i < 100; i++ {
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewSource(17)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %g", i, c, want)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewSource(2)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(50, 100)
		if v < 50 || v >= 100 {
			t.Fatalf("Uniform(50,100) = %g", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := NewSource(2)
	if v := r.Uniform(3, 3); v != 3 {
		t.Fatalf("Uniform(3,3) = %g, want 3", v)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewSource(13)
	const rate = 0.25
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05*(1/rate) {
		t.Fatalf("exponential mean = %g, want ~%g", mean, 1/rate)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := NewSource(13)
	for i := 0; i < 10000; i++ {
		if v := r.Exponential(2); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exponential produced %g", v)
		}
	}
}

func TestPoissonMeanSmallLambda(t *testing.T) {
	r := NewSource(19)
	const lambda = 4.5
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Poisson(lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.1 {
		t.Fatalf("poisson mean = %g, want ~%g", mean, lambda)
	}
}

func TestPoissonMeanLargeLambda(t *testing.T) {
	r := NewSource(23)
	const lambda = 200.0
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Poisson(lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 1.0 {
		t.Fatalf("poisson mean = %g, want ~%g", mean, lambda)
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := NewSource(1)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
	if v := r.Poisson(-1); v != 0 {
		t.Fatalf("Poisson(-1) = %d", v)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewSource(29)
	const mean, sd = 10.0, 3.0
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Normal(mean, sd)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Fatalf("normal mean = %g", m)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Fatalf("normal sd = %g", math.Sqrt(variance))
	}
}

func TestParetoFromMedian(t *testing.T) {
	p := ParetoFromMedian(3600, 1.5) // 60-minute median, as in the paper
	if math.Abs(p.Median()-3600) > 1e-9 {
		t.Fatalf("median = %g, want 3600", p.Median())
	}
	r := NewSource(31)
	// Empirical median check.
	const n = 100001
	vals := make([]float64, n)
	below := 0
	for i := range vals {
		vals[i] = p.Sample(r)
		if vals[i] < 3600 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %g, want ~0.5", frac)
	}
}

func TestParetoSampleAboveXm(t *testing.T) {
	p := Pareto{Xm: 10, Alpha: 2}
	r := NewSource(37)
	for i := 0; i < 10000; i++ {
		if v := p.Sample(r); v < p.Xm {
			t.Fatalf("sample %g below scale %g", v, p.Xm)
		}
	}
}

func TestParetoMean(t *testing.T) {
	p := Pareto{Xm: 10, Alpha: 2}
	if got, want := p.Mean(), 20.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	heavy := Pareto{Xm: 10, Alpha: 1}
	if !math.IsInf(heavy.Mean(), 1) {
		t.Fatal("alpha<=1 mean should be +Inf")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewSource(41)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	Shuffle(r, xs)
	seen := make(map[int]bool)
	for _, x := range xs {
		if x < 0 || x > 9 || seen[x] {
			t.Fatalf("not a permutation: %v", xs)
		}
		seen[x] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewSource(43)
	for trial := 0; trial < 100; trial++ {
		out := SampleWithoutReplacement(r, 20, 5)
		if len(out) != 5 {
			t.Fatalf("len = %d", len(out))
		}
		seen := make(map[int]bool)
		for _, v := range out {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("invalid sample %v", out)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := NewSource(43)
	out := SampleWithoutReplacement(r, 5, 5)
	seen := make(map[int]bool)
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("full sample not a permutation: %v", out)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewSource(47)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewSource(53)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %g", frac)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewSource(59)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(r, weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("weight-1 index frequency %g, want ~0.25", frac0)
	}
}

func TestWeightedChoiceNegativeTreatedZero(t *testing.T) {
	r := NewSource(61)
	for i := 0; i < 1000; i++ {
		if got := WeightedChoice(r, []float64{-5, 2, -1}); got != 1 {
			t.Fatalf("WeightedChoice picked %d", got)
		}
	}
}

func TestChoice(t *testing.T) {
	r := NewSource(67)
	xs := []string{"a", "b", "c"}
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		seen[Choice(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Choice hit %d distinct values", len(seen))
	}
}

// Property: Intn(n) is always within range for any positive n.
func TestQuickIntnInRange(t *testing.T) {
	r := NewSource(71)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pareto samples never fall below the scale parameter.
func TestQuickParetoLowerBound(t *testing.T) {
	r := NewSource(73)
	f := func(xmRaw, alphaRaw uint16) bool {
		xm := float64(xmRaw%1000)/10 + 0.1
		alpha := float64(alphaRaw%50)/10 + 0.1
		p := Pareto{Xm: xm, Alpha: alpha}
		return p.Sample(r) >= xm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ParetoFromMedian round-trips the median.
func TestQuickParetoMedianRoundTrip(t *testing.T) {
	f := func(medRaw, alphaRaw uint16) bool {
		med := float64(medRaw%10000)/10 + 1
		alpha := float64(alphaRaw%80)/10 + 0.2
		p := ParetoFromMedian(med, alpha)
		return math.Abs(p.Median()-med) < 1e-6*med
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// Poisson returns a draw from the Poisson distribution with mean lambda.
// It uses Knuth's product method for small lambda and a normal
// approximation (rounded, clamped at zero) for large lambda.
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := r.Normal(lambda, math.Sqrt(lambda))
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// Normal returns a draw from the normal distribution with the given mean
// and standard deviation, using the Box-Muller transform.
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Mean returns the distribution mean, or +Inf when Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Median returns the distribution's median, Xm·2^(1/α).
func (p Pareto) Median() float64 { return p.Xm * math.Pow(2, 1/p.Alpha) }
