// Package quality computes the paper's edge- and path-quality metrics
// (§2.1, §2.3):
//
//   - edge quality  q(s,v) = w_s·σ(s,v) + w_a·α_s(v), with w_s + w_a = 1
//     (Weights.Edge; σ comes from the batch's history, α from the
//     holder's probing estimator, and the last edge of a path, which
//     ends at the responder R, has quality 1);
//   - path quality of a batch, Q(π) = L / ‖π‖, where L is the average path
//     length and ‖π‖ the size of the union forwarder set.
package quality

import (
	"fmt"

	"p2panon/internal/overlay"
)

// Weights holds the selectivity/availability weighting (w_s, w_a). The
// paper requires w_s + w_a = 1; the default is the experimental setting
// w_s = w_a = 0.5.
type Weights struct {
	Selectivity  float64 // w_s
	Availability float64 // w_a
}

// DefaultWeights returns the paper's experimental setting, 0.5/0.5.
func DefaultWeights() Weights { return Weights{Selectivity: 0.5, Availability: 0.5} }

// Validate returns an error unless both weights are non-negative and sum
// to 1 (within floating-point tolerance).
func (w Weights) Validate() error {
	if w.Selectivity < 0 || w.Availability < 0 {
		return fmt.Errorf("quality: negative weight (w_s=%g, w_a=%g)", w.Selectivity, w.Availability)
	}
	sum := w.Selectivity + w.Availability
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("quality: weights sum to %g, want 1", sum)
	}
	return nil
}

// Edge computes q(s,v) = w_s·σ + w_a·α. Inputs are expected in [0,1]; the
// result is clamped to [0,1] to protect downstream utility math from
// estimator overshoot.
func (w Weights) Edge(sigma, alpha float64) float64 {
	q := w.Selectivity*sigma + w.Availability*alpha
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// PathQuality returns the paper's batch path-quality metric
// Q(π) = L / ‖π‖. ‖π‖ = 0 (no forwarders at all, e.g. every connection
// went I→R directly) yields quality equal to L interpreted against a
// one-element set, i.e. L; callers that need the raw ratio can test
// forwarderSet themselves.
func PathQuality(avgPathLen float64, forwarderSet int) float64 {
	if forwarderSet <= 0 {
		return avgPathLen
	}
	return avgPathLen / float64(forwarderSet)
}

// ForwarderSet tracks the union forwarder set ⋃ᵢ Fᵢ of a batch of
// recurring connections — the quantity the system objective minimises —
// and each member's forwarding-instance count m.
type ForwarderSet struct {
	members map[overlay.NodeID]int // m per member
	// lengths accumulates path lengths so the average L is available for
	// Q(π).
	totalLen int
	paths    int
}

// NewForwarderSet returns an empty forwarder set.
func NewForwarderSet() *ForwarderSet {
	return &ForwarderSet{members: make(map[overlay.NodeID]int)}
}

// AddPath records one completed connection: its intermediate forwarders
// (excluding I and R), one forwarding instance per occurrence, and its
// hop length.
func (fs *ForwarderSet) AddPath(forwarders []overlay.NodeID, hopLen int) {
	for _, f := range forwarders {
		fs.members[f]++
	}
	fs.totalLen += hopLen
	fs.paths++
}

// Size returns ‖π‖, the number of distinct forwarders used by the batch.
func (fs *ForwarderSet) Size() int { return len(fs.members) }

// Forwards returns id's forwarding-instance count m: 0 for a non-member.
func (fs *ForwarderSet) Forwards(id overlay.NodeID) int { return fs.members[id] }

// Members returns the forwarder IDs (unsorted; callers that need
// determinism should sort).
func (fs *ForwarderSet) Members() []overlay.NodeID {
	out := make([]overlay.NodeID, 0, len(fs.members))
	for id := range fs.members {
		out = append(out, id)
	}
	return out
}

// AvgLen returns L, the average path length over recorded connections, or
// 0 before any path completes.
func (fs *ForwarderSet) AvgLen() float64 {
	if fs.paths == 0 {
		return 0
	}
	return float64(fs.totalLen) / float64(fs.paths)
}

// Quality returns Q(π) = AvgLen / Size for this batch.
func (fs *ForwarderSet) Quality() float64 {
	return PathQuality(fs.AvgLen(), fs.Size())
}
