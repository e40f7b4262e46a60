// Package attack implements the intersection attack of §2.1 and the
// anonymity metrics used to evaluate it.
//
// In an intersection attack the adversary observes, for each of the
// recurring connections between I and R, which nodes were active (online)
// at connection time. The true initiator is active every time, so the
// intersection of the active sets shrinks toward {I} as rounds accumulate.
// The quality of anonymity is measured by the size of the surviving
// candidate set (the anonymity set) and its normalised entropy (the
// "degree of anonymity" of Diaz et al. / Serjantov-Danezis, the standard
// quantification the paper's reference [17] builds on).
package attack

import (
	"math"

	"p2panon/internal/overlay"
)

// Intersector accumulates one intersection attack against a single
// recurring (I, R) pair.
type Intersector struct {
	rounds     int
	candidates map[overlay.NodeID]struct{}
}

// NewIntersector returns an attack state with no observations (every node
// still possible).
func NewIntersector() *Intersector {
	return &Intersector{}
}

// Rounds returns the number of observations folded in.
func (x *Intersector) Rounds() int { return x.rounds }

// Observe folds in one connection-time snapshot of active nodes. The
// candidate set becomes the intersection of all snapshots so far.
func (x *Intersector) Observe(active []overlay.NodeID) {
	x.rounds++
	if x.candidates == nil {
		x.candidates = make(map[overlay.NodeID]struct{}, len(active))
		for _, id := range active {
			x.candidates[id] = struct{}{}
		}
		return
	}
	next := make(map[overlay.NodeID]struct{}, len(x.candidates))
	for _, id := range active {
		if _, ok := x.candidates[id]; ok {
			next[id] = struct{}{}
		}
	}
	x.candidates = next
}

// AnonymitySetSize returns the number of surviving candidates, or -1
// before any observation (everything is possible, the set is unbounded
// from the attacker's viewpoint).
func (x *Intersector) AnonymitySetSize() int {
	if x.rounds == 0 {
		return -1
	}
	return len(x.candidates)
}

// Candidates reports whether id survives as a candidate.
func (x *Intersector) Candidates(id overlay.NodeID) bool {
	if x.rounds == 0 {
		return true
	}
	_, ok := x.candidates[id]
	return ok
}

// Identified reports whether the candidate set has collapsed to exactly
// the given node — attack success.
func (x *Intersector) Identified(initiator overlay.NodeID) bool {
	return x.rounds > 0 && len(x.candidates) == 1 && x.Candidates(initiator)
}

// DegreeOfAnonymity returns the normalised entropy d = H/H_max of the
// uniform distribution over the surviving candidate set, relative to a
// population of n nodes: d = log(|C|)/log(n). d = 1 means full anonymity,
// d = 0 means identified. Before any observation it returns 1.
func (x *Intersector) DegreeOfAnonymity(n int) float64 {
	if n <= 1 {
		return 0
	}
	if x.rounds == 0 {
		return 1
	}
	c := len(x.candidates)
	if c <= 1 {
		return 0
	}
	return math.Log(float64(c)) / math.Log(float64(n))
}

// Entropy returns the Shannon entropy (bits) of a probability
// distribution; used for non-uniform attacker posteriors.
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}
