// Package reputation implements the score-based forwarder-selection
// baseline the paper's related work contrasts with (Dingledine et al. [9,
// 10]): peers accumulate reputation from feedback reports and are selected
// for forwarding with probability proportional to their score.
//
// The paper's argument for incentives over reputation is that "nodes can
// collude with each other to increase their score or reputation and
// therefore increase their probability of being selected in the forwarding
// path" — whereas the payment mechanism only rewards *receipt-provable*
// forwarding. This package provides the reputation substrate, the
// collusion behaviour, and a path-capture simulation so that claim can be
// measured (the CMP-REP study in DESIGN.md).
package reputation

import (
	"fmt"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
)

// Table is a (system-wide) reputation store: subject → score. Scores start
// at the prior and never go below the floor.
type Table struct {
	scores map[overlay.NodeID]float64
	prior  float64
	floor  float64
}

// NewTable creates a table with the given prior score for unknown
// subjects. The floor is fixed at a small positive value so selection
// probabilities stay well-defined.
func NewTable(prior float64) *Table {
	if prior <= 0 {
		panic(fmt.Sprintf("reputation: prior %g", prior))
	}
	return &Table{
		scores: make(map[overlay.NodeID]float64),
		prior:  prior,
		floor:  1e-6,
	}
}

// Score returns the subject's current score.
func (t *Table) Score(subject overlay.NodeID) float64 {
	if s, ok := t.scores[subject]; ok {
		return s
	}
	return t.prior
}

// Report applies feedback: delta > 0 for observed good service, delta < 0
// for failures. Scores clamp at the floor.
func (t *Table) Report(subject overlay.NodeID, delta float64) {
	s := t.Score(subject) + delta
	if s < t.floor {
		s = t.floor
	}
	t.scores[subject] = s
}

// SelectWeighted picks one candidate with probability proportional to its
// score. It panics on an empty candidate list.
func (t *Table) SelectWeighted(rng *dist.Source, candidates []overlay.NodeID) overlay.NodeID {
	if len(candidates) == 0 {
		panic("reputation: no candidates")
	}
	weights := make([]float64, len(candidates))
	for i, id := range candidates {
		weights[i] = t.Score(id)
	}
	return candidates[dist.WeightedChoice(rng, weights)]
}

// Coalition is a set of colluding nodes that file fake positive reports
// about one another.
type Coalition struct {
	members map[overlay.NodeID]struct{}
	// Boost is the fake-report delta each member files for every other
	// member per inflation round.
	Boost float64
}

// NewCoalition builds a coalition.
func NewCoalition(members []overlay.NodeID, boost float64) *Coalition {
	m := make(map[overlay.NodeID]struct{}, len(members))
	for _, id := range members {
		m[id] = struct{}{}
	}
	return &Coalition{members: m, Boost: boost}
}

// Contains reports membership.
func (c *Coalition) Contains(id overlay.NodeID) bool {
	_, ok := c.members[id]
	return ok
}

// Inflate files one round of fake mutual praise: every member reports
// +Boost for every other member. Returns the number of fake reports.
func (c *Coalition) Inflate(t *Table) int {
	n := 0
	for a := range c.members {
		for b := range c.members {
			if a == b {
				continue
			}
			t.Report(b, c.Boost)
			n++
		}
	}
	return n
}

// CaptureSim measures how much of the forwarding work a coalition captures
// under reputation-weighted routing. Each round: one connection of
// `hops` reputation-weighted selections from the online population,
// honest feedback (+1 per actual forwarding slot), then one coalition
// inflation round. It returns the fraction of forwarding slots held by
// coalition members, overall and in the final quarter of the run (when
// inflation has compounded).
type CaptureSim struct {
	Net       *overlay.Network
	Table     *Table
	Coalition *Coalition
	Rng       *dist.Source
	Hops      int
}

// CaptureResult reports the simulation outcome.
type CaptureResult struct {
	Rounds        int
	TotalSlots    int
	CoalitionSlot int
	// Overall is CoalitionSlot/TotalSlots; Late is the same ratio over
	// the final quarter of rounds.
	Overall float64
	Late    float64
}

// Run executes `rounds` connections between random good endpoints.
func (s *CaptureSim) Run(rounds int) (*CaptureResult, error) {
	if s.Hops < 1 {
		return nil, fmt.Errorf("reputation: hops %d", s.Hops)
	}
	online := s.Net.OnlineIDs()
	if len(online) < s.Hops+2 {
		return nil, fmt.Errorf("reputation: %d online nodes for %d hops", len(online), s.Hops)
	}
	res := &CaptureResult{Rounds: rounds}
	lateFrom := rounds * 3 / 4
	lateSlots, lateCoalition := 0, 0
	for round := 0; round < rounds; round++ {
		// Endpoints: good nodes only.
		var I, R overlay.NodeID
		for {
			I = dist.Choice(s.Rng, online)
			R = dist.Choice(s.Rng, online)
			if I != R && !s.Coalition.Contains(I) && !s.Coalition.Contains(R) {
				break
			}
		}
		// Reputation-weighted relay selection (without replacement).
		taken := map[overlay.NodeID]struct{}{I: {}, R: {}}
		for h := 0; h < s.Hops; h++ {
			var cands []overlay.NodeID
			for _, id := range online {
				if _, used := taken[id]; !used {
					cands = append(cands, id)
				}
			}
			if len(cands) == 0 {
				break
			}
			pick := s.Table.SelectWeighted(s.Rng, cands)
			taken[pick] = struct{}{}
			res.TotalSlots++
			captured := s.Coalition.Contains(pick)
			if captured {
				res.CoalitionSlot++
			}
			if round >= lateFrom {
				lateSlots++
				if captured {
					lateCoalition++
				}
			}
			// Honest feedback: the initiator saw the relay forward.
			s.Table.Report(pick, 1)
		}
		s.Coalition.Inflate(s.Table)
	}
	if res.TotalSlots > 0 {
		res.Overall = float64(res.CoalitionSlot) / float64(res.TotalSlots)
	}
	if lateSlots > 0 {
		res.Late = float64(lateCoalition) / float64(lateSlots)
	}
	return res, nil
}
