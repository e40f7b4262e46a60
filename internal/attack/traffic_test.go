package attack

import (
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
)

func TestPearsonKnownValues(t *testing.T) {
	if got := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation %g", got)
	}
	if got := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation %g", got)
	}
	if got := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant vector correlation %g", got)
	}
	if got := pearson(nil, nil); got != 0 {
		t.Fatalf("empty correlation %g", got)
	}
	if got := pearson([]float64{1}, []float64{1, 2}); got != 0 {
		t.Fatalf("length mismatch correlation %g", got)
	}
}

func TestCorrelatorIdentifiesInitiator(t *testing.T) {
	// Initiator 3 sends in epochs where responder 9 receives; others send
	// uncorrelated background traffic.
	tc := NewTrafficCorrelator(9)
	rng := dist.NewSource(1)
	const epochs = 60
	for e := 0; e < epochs; e++ {
		active := e%3 == 0 // initiator's recurring connection pattern
		counts := map[overlay.NodeID]float64{}
		for id := overlay.NodeID(0); id < 8; id++ {
			counts[id] = float64(rng.Intn(3)) // background noise
		}
		recv := 0.0
		if active {
			counts[3] += 1
			recv = 1
		}
		tc.RecordEpoch(counts, recv)
	}
	if tc.Epochs() != epochs {
		t.Fatalf("epochs %d", tc.Epochs())
	}
	top, score := tc.TopSuspect()
	if top != 3 {
		t.Fatalf("top suspect %d (score %g), want 3", top, score)
	}
	if got := tc.RankOf(3); got != 1 {
		t.Fatalf("initiator rank %d", got)
	}
	if score < 0.3 {
		t.Fatalf("initiator score %g too weak", score)
	}
}

func TestCorrelatorCoverTrafficDefeats(t *testing.T) {
	// If the initiator sends in *every* epoch (constant-rate cover
	// traffic), its vector is constant and the correlation collapses —
	// the standard defence.
	tc := NewTrafficCorrelator(9)
	rng := dist.NewSource(2)
	for e := 0; e < 60; e++ {
		counts := map[overlay.NodeID]float64{}
		for id := overlay.NodeID(0); id < 8; id++ {
			counts[id] = float64(rng.Intn(3))
		}
		counts[3] = 5 // constant cover rate
		recv := 0.0
		if e%3 == 0 {
			recv = 1
		}
		tc.RecordEpoch(counts, recv)
	}
	if got := tc.Score(3); math.Abs(got) > 1e-9 {
		t.Fatalf("cover traffic still correlates: %g", got)
	}
}

func TestCorrelatorLateJoinerPadded(t *testing.T) {
	tc := NewTrafficCorrelator(9)
	tc.RecordEpoch(map[overlay.NodeID]float64{1: 2}, 1)
	tc.RecordEpoch(map[overlay.NodeID]float64{1: 0, 2: 3}, 0)
	tc.RecordEpoch(map[overlay.NodeID]float64{1: 2, 2: 0}, 1)
	// Node 2 appeared at epoch 2; its vector must be padded to length 3.
	if got := tc.Score(2); math.IsNaN(got) {
		t.Fatal("late joiner score NaN")
	}
	// Node 1 sends exactly when responder receives.
	if got := tc.Score(1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("node 1 score %g", got)
	}
}

func TestCorrelatorRankExcludesResponder(t *testing.T) {
	tc := NewTrafficCorrelator(9)
	tc.RecordEpoch(map[overlay.NodeID]float64{1: 1, 9: 1}, 1)
	tc.RecordEpoch(map[overlay.NodeID]float64{1: 0, 9: 0}, 0)
	for _, s := range tc.Rank() {
		if s.Node == 9 {
			t.Fatal("responder ranked as suspect")
		}
	}
}

func TestCorrelatorEmpty(t *testing.T) {
	tc := NewTrafficCorrelator(9)
	if top, _ := tc.TopSuspect(); top != overlay.None {
		t.Fatalf("empty top suspect %d", top)
	}
	if tc.RankOf(3) != 0 {
		t.Fatal("rank of unobserved node")
	}
	if tc.Score(1) != 0 {
		t.Fatal("score of unobserved node")
	}
}

// TopSuspect returns the highest-ranked candidate, or (overlay.None, 0)
// with no observations.
func (tc *TrafficCorrelator) TopSuspect() (overlay.NodeID, float64) {
	ranked := tc.Rank()
	if len(ranked) == 0 {
		return overlay.None, 0
	}
	return ranked[0].Node, ranked[0].Score
}

// Epochs returns the number of observation epochs recorded.
func (tc *TrafficCorrelator) Epochs() int { return tc.epochs }
