// Package crowds implements the analytic model of Crowds (Reiter & Rubin
// 1998), the forwarding system the paper's mechanism builds on: expected
// path lengths under probabilistic forwarding, the predecessor-observation
// probability for colluding jondos, and the probable-innocence condition.
// It is a test-only package: the model is the oracle that its tests
// (simulator_test.go) hold the simulator's Crowds-coin termination mode
// and the coalition attack measurements to, and no binary runs it.
package crowds

import (
	"fmt"
	"math"
)

// Params describes a crowd: n members, c of them collaborating attackers,
// and forwarding probability pf ∈ (0, 1).
type Params struct {
	N  int     // crowd size
	C  int     // collaborators among the N
	Pf float64 // probability of forwarding (vs delivering)
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("crowds: n=%d", p.N)
	}
	if p.C < 0 || p.C >= p.N {
		return fmt.Errorf("crowds: c=%d of n=%d", p.C, p.N)
	}
	if p.Pf <= 0 || p.Pf >= 1 {
		return fmt.Errorf("crowds: pf=%g", p.Pf)
	}
	return nil
}

// ExpectedPathLength returns the expected number of edges on a Crowds
// path, counting I→first-jondo and the final delivery edge: the number of
// forwarding coin wins is geometric with success probability 1−pf, so
// E[edges] = 2 + pf/(1−pf).
func ExpectedPathLength(pf float64) float64 {
	return 2 + pf/(1-pf)
}

// PathLengthPMF returns P[path has exactly k edges] for k >= 2: the first
// jondo is always reached, then k−2 forwarding wins followed by one
// delivery: (1−pf)·pf^(k−2).
func PathLengthPMF(pf float64, k int) float64 {
	if k < 2 {
		return 0
	}
	return (1 - pf) * math.Pow(pf, float64(k-2))
}

// FirstCollaboratorSeesInitiator returns the probability that, given at
// least one collaborator appears on the path, the *first* collaborator's
// immediate predecessor is the true initiator — Reiter & Rubin's
// P(I | H₁⁺):
//
//	P = 1 − pf·(n − c − 1)/n
//
// (Theorem 5.2's complement form.) This is the attacker's best posterior
// for the predecessor attack the adversary package measures empirically.
func (p Params) FirstCollaboratorSeesInitiator() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return 1 - p.Pf*float64(p.N-p.C-1)/float64(p.N), nil
}

// ProbableInnocence reports Reiter & Rubin's condition for the initiator
// to remain "probably innocent" (the first collaborator's predecessor is
// the initiator with probability at most 1/2):
//
//	n ≥ pf/(pf − 1/2) · (c + 1),  requiring pf > 1/2.
func (p Params) ProbableInnocence() (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	if p.Pf <= 0.5 {
		return false, nil
	}
	return float64(p.N) >= p.Pf/(p.Pf-0.5)*float64(p.C+1), nil
}

// CollaboratorOnPath returns the probability that at least one
// collaborator appears among the forwarders of a path. Each forwarding
// choice is uniform over the crowd, so with probability c/n a given chosen
// jondo collaborates; the number of choices is 1 + Geometric(1−pf).
// Summing the geometric series:
//
//	P = (c/n) · 1 / (1 − pf·(n−c)/n)
func (p Params) CollaboratorOnPath() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.C == 0 {
		return 0, nil
	}
	frac := float64(p.C) / float64(p.N)
	return frac / (1 - p.Pf*float64(p.N-p.C)/float64(p.N)), nil
}

// MinCrowdForInnocence returns the smallest crowd size n that preserves
// probable innocence against c collaborators at forwarding probability
// pf, or an error when pf ≤ 1/2 (no finite crowd suffices).
func MinCrowdForInnocence(c int, pf float64) (int, error) {
	if pf <= 0.5 || pf >= 1 {
		return 0, fmt.Errorf("crowds: probable innocence needs pf in (1/2, 1), got %g", pf)
	}
	if c < 0 {
		return 0, fmt.Errorf("crowds: c=%d", c)
	}
	n := pf / (pf - 0.5) * float64(c+1)
	return int(math.Ceil(n)), nil
}
