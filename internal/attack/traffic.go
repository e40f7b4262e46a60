package attack

import (
	"math"
	"sort"

	"p2panon/internal/overlay"
)

// TrafficCorrelator implements the §5 "traffic analysis" attack: a global
// passive observer counts each node's sending activity per epoch and
// correlates candidate initiators' activity vectors with the responder's
// receiving vector. The true initiator sends exactly when the responder
// receives (shifted by negligible forwarding latency at the paper's time
// scales), so its correlation stands out unless cover traffic or batching
// hides it.
type TrafficCorrelator struct {
	epochs    int
	sends     map[overlay.NodeID][]float64
	responder overlay.NodeID
	received  []float64
}

// NewTrafficCorrelator creates an attack state against the given
// responder.
func NewTrafficCorrelator(responder overlay.NodeID) *TrafficCorrelator {
	return &TrafficCorrelator{
		sends:     make(map[overlay.NodeID][]float64),
		responder: responder,
	}
}

// RecordEpoch folds in one observation epoch: sendCounts maps each node to
// the number of messages it originated or forwarded in the epoch, and
// received is the number of messages the responder received.
func (tc *TrafficCorrelator) RecordEpoch(sendCounts map[overlay.NodeID]float64, received float64) {
	tc.epochs++
	for id, c := range sendCounts {
		v := tc.sends[id]
		// Pad any node that appeared late with zeros for earlier epochs.
		for len(v) < tc.epochs-1 {
			v = append(v, 0)
		}
		tc.sends[id] = append(v, c)
	}
	// Pad nodes that were silent this epoch.
	for id, v := range tc.sends {
		if len(v) < tc.epochs {
			tc.sends[id] = append(v, 0)
		}
	}
	tc.received = append(tc.received, received)
}

// pearson computes the Pearson correlation coefficient of two equal-length
// vectors, or 0 when either is constant.
func pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Score returns a candidate's correlation with the responder's receiving
// pattern, in [-1, 1].
func (tc *TrafficCorrelator) Score(candidate overlay.NodeID) float64 {
	v, ok := tc.sends[candidate]
	if !ok {
		return 0
	}
	// Align lengths (candidate may have been padded).
	n := tc.epochs
	if len(v) < n {
		padded := make([]float64, n)
		copy(padded, v)
		v = padded
	}
	return pearson(v[:n], tc.received[:n])
}

// Suspect is one ranked initiator candidate.
type Suspect struct {
	Node  overlay.NodeID
	Score float64
}

// Rank returns all observed nodes (except the responder) ordered by
// descending correlation score; ties break by ascending node ID.
func (tc *TrafficCorrelator) Rank() []Suspect {
	out := make([]Suspect, 0, len(tc.sends))
	for id := range tc.sends {
		if id == tc.responder {
			continue
		}
		out = append(out, Suspect{Node: id, Score: tc.Score(id)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// RankOf returns the 1-based rank of the given node in the suspect list
// (lower is more suspicious), or 0 if unobserved. The initiator's rank is
// the attack's figure of merit: rank 1 means identified.
func (tc *TrafficCorrelator) RankOf(node overlay.NodeID) int {
	for i, s := range tc.Rank() {
		if s.Node == node {
			return i + 1
		}
	}
	return 0
}
