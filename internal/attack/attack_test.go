package attack

import (
	"math"
	"testing"
	"testing/quick"

	"p2panon/internal/overlay"
)

func ids(xs ...int) []overlay.NodeID {
	out := make([]overlay.NodeID, len(xs))
	for i, x := range xs {
		out[i] = overlay.NodeID(x)
	}
	return out
}

func TestIntersectorFresh(t *testing.T) {
	x := NewIntersector()
	if x.Rounds() != 0 {
		t.Fatal("fresh rounds != 0")
	}
	if x.AnonymitySetSize() != -1 {
		t.Fatal("fresh set size should be -1 (unbounded)")
	}
	if !x.Candidates(7) {
		t.Fatal("everything should be possible before observations")
	}
	if x.DegreeOfAnonymity(40) != 1 {
		t.Fatal("fresh degree should be 1")
	}
}

func TestIntersectionShrinks(t *testing.T) {
	x := NewIntersector()
	x.Observe(ids(1, 2, 3, 4, 5))
	if x.AnonymitySetSize() != 5 {
		t.Fatalf("size = %d", x.AnonymitySetSize())
	}
	x.Observe(ids(2, 3, 4, 9))
	if x.AnonymitySetSize() != 3 {
		t.Fatalf("size = %d", x.AnonymitySetSize())
	}
	x.Observe(ids(3, 7))
	if x.AnonymitySetSize() != 1 {
		t.Fatalf("size = %d", x.AnonymitySetSize())
	}
	if !x.Identified(3) {
		t.Fatal("initiator 3 should be identified")
	}
	if x.Identified(2) {
		t.Fatal("wrong node identified")
	}
}

func TestIntersectionNeverGrows(t *testing.T) {
	x := NewIntersector()
	x.Observe(ids(1, 2))
	x.Observe(ids(1, 2, 3, 4, 5, 6))
	if x.AnonymitySetSize() != 2 {
		t.Fatalf("set grew: %d", x.AnonymitySetSize())
	}
	if x.Candidates(5) {
		t.Fatal("eliminated candidate revived")
	}
}

func TestIntersectionCanEmpty(t *testing.T) {
	// Disjoint observations (initiator churned out — a false premise for
	// the attacker) give an empty set.
	x := NewIntersector()
	x.Observe(ids(1, 2))
	x.Observe(ids(3, 4))
	if x.AnonymitySetSize() != 0 {
		t.Fatalf("size = %d", x.AnonymitySetSize())
	}
	if x.Identified(1) {
		t.Fatal("empty set identified someone")
	}
	if x.DegreeOfAnonymity(40) != 0 {
		t.Fatal("empty set degree should be 0")
	}
}

func TestDegreeOfAnonymity(t *testing.T) {
	x := NewIntersector()
	x.Observe(ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	got := x.DegreeOfAnonymity(40)
	want := math.Log(10) / math.Log(40)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("degree = %g, want %g", got, want)
	}
	x2 := NewIntersector()
	x2.Observe(ids(3))
	if x2.DegreeOfAnonymity(40) != 0 {
		t.Fatal("singleton degree should be 0")
	}
	if x.DegreeOfAnonymity(1) != 0 {
		t.Fatal("n<=1 degree should be 0")
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("H = %g, want 1 bit", got)
	}
	if got := Entropy([]float64{1, 0, 0}); got != 0 {
		t.Fatalf("H = %g, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Fatalf("H = %g", got)
	}
	// Uniform over 4: 2 bits.
	if got := Entropy([]float64{0.25, 0.25, 0.25, 0.25}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("H = %g", got)
	}
}

func TestDegreeFromProbs(t *testing.T) {
	// Uniform over 8 of 8 -> 1.
	probs := make([]float64, 8)
	for i := range probs {
		probs[i] = 1.0 / 8
	}
	if got := DegreeFromProbs(probs, 8); math.Abs(got-1) > 1e-12 {
		t.Fatalf("degree = %g", got)
	}
	if got := DegreeFromProbs([]float64{1}, 8); got != 0 {
		t.Fatalf("point mass degree = %g", got)
	}
	if DegreeFromProbs(probs, 1) != 0 {
		t.Fatal("n=1 degree should be 0")
	}
}

// Property: anonymity-set size is non-increasing in rounds; degree in
// [0, 1].
func TestQuickIntersectionMonotone(t *testing.T) {
	f := func(rounds [][]uint8) bool {
		x := NewIntersector()
		prev := math.MaxInt
		for _, r := range rounds {
			active := make([]overlay.NodeID, 0, len(r))
			for _, v := range r {
				active = append(active, overlay.NodeID(v%32))
			}
			x.Observe(active)
			size := x.AnonymitySetSize()
			if size > prev {
				return false
			}
			prev = size
			d := x.DegreeOfAnonymity(32)
			if d < 0 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the true initiator always survives intersection when present
// in every observation.
func TestQuickInitiatorSurvives(t *testing.T) {
	f := func(rounds [][]uint8) bool {
		const initiator = overlay.NodeID(99)
		x := NewIntersector()
		for _, r := range rounds {
			active := []overlay.NodeID{initiator}
			for _, v := range r {
				active = append(active, overlay.NodeID(v%32))
			}
			x.Observe(active)
		}
		return x.Candidates(initiator)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// DegreeFromProbs returns d = H(probs)/log2(n); the general (non-uniform)
// degree of anonymity.
func DegreeFromProbs(probs []float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	hMax := math.Log2(float64(n))
	if hMax == 0 {
		return 0
	}
	d := Entropy(probs) / hMax
	if d > 1 {
		return 1
	}
	return d
}
