package experiment

import (
	"fmt"

	"p2panon/internal/attack"
	"p2panon/internal/core"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
	"p2panon/internal/stats"
)

// TrafficAnalysisResult summarises the §5 traffic-analysis attack: a
// global passive observer buckets all sending activity into epochs and
// correlates each node's activity with the target responder's receiving
// pattern. The figure of merit is the true initiator's rank among the
// suspects (1 = identified).
type TrafficAnalysisResult struct {
	Trials         int
	MeanRank       float64 // mean rank of the true initiator (1 is worst case for anonymity)
	IdentifiedRate float64 // fraction of trials with rank 1
	MeanScore      float64 // mean correlation score of the true initiator
	Population     int     // suspects per trial (for context)
}

// RunTrafficAnalysis mounts the attack against the first workload pair of
// each trial, with every other pair's traffic as background noise. Epochs
// are fixed windows of the simulated clock.
func RunTrafficAnalysis(base Setup, epoch sim.Time, trials int) (*TrafficAnalysisResult, error) {
	if epoch <= 0 {
		return nil, fmt.Errorf("experiment: epoch %v", epoch)
	}
	var ranks, scores stats.Accumulator
	identified := 0
	population := 0
	for trial := 0; trial < trials; trial++ {
		s := base
		s.Seed = base.Seed + uint64(trial)*7717
		h, err := newHarness(s)
		if err != nil {
			return nil, err
		}
		target := h.pairs[0]
		tc := attack.NewTrafficCorrelator(target.Responder)

		// Accumulate per-epoch activity. A connection event marks its
		// initiator and every forwarder as senders in the current epoch;
		// the target responder's receipts are the correlation reference.
		curEpoch := -1
		sends := map[overlay.NodeID]float64{}
		received := 0.0
		flush := func() {
			if curEpoch >= 0 {
				tc.RecordEpoch(sends, received)
			}
			sends = map[overlay.NodeID]float64{}
			received = 0
		}
		h.afterConnection = func(pairIdx int, res *core.PathResult) {
			e := int(h.engine.Now() / epoch)
			if e != curEpoch {
				flush()
				curEpoch = e
			}
			sends[res.Nodes[0]]++
			for _, f := range res.Forwarders() {
				sends[f]++
			}
			if pairIdx == 0 {
				received++
			}
		}
		if err := h.run(); err != nil {
			return nil, err
		}
		flush()

		rank := tc.RankOf(target.Initiator)
		if rank == 0 {
			continue // initiator never sent (all connections skipped)
		}
		ranks.Add(float64(rank))
		scores.Add(tc.Score(target.Initiator))
		if rank == 1 {
			identified++
		}
		if n := len(tc.Rank()); n > population {
			population = n
		}
	}
	res := &TrafficAnalysisResult{
		Trials:     ranks.N(),
		MeanRank:   ranks.Mean(),
		MeanScore:  scores.Mean(),
		Population: population,
	}
	if ranks.N() > 0 {
		res.IdentifiedRate = float64(identified) / float64(ranks.N())
	}
	return res, nil
}

// TrajectoryPoint is one connection-index position of the convergence
// study: how reuse builds up over the batch.
type TrajectoryPoint struct {
	Conn        int     // 1-based connection index within the batch
	NewEdgeRate float64 // mean fraction of new edges at this index
	CumSetSize  float64 // mean cumulative ‖π‖ after this many connections
}

// RunTrajectory measures the per-connection convergence of the mechanism:
// for each connection index k, the mean per-connection new-edge fraction
// and the mean cumulative forwarder-set size, per strategy. This is the
// dynamics behind Prop. 1 — the batch "locking in" its forwarders.
func RunTrajectory(base Setup, strategies []core.Strategy, trials int) (map[core.Strategy][]TrajectoryPoint, error) {
	out := make(map[core.Strategy][]TrajectoryPoint)
	maxConn := base.Workload.MaxConnections
	for _, strat := range strategies {
		newEdge := make([]stats.Accumulator, maxConn)
		cumSet := make([]stats.Accumulator, maxConn)
		for trial := 0; trial < trials; trial++ {
			s := base
			s.Strategy = strat
			s.Seed = base.Seed + uint64(trial)*4409
			h, err := newHarness(s)
			if err != nil {
				return nil, err
			}
			h.afterConnection = func(pairIdx int, res *core.PathResult) {
				k := res.Conn
				if k < 1 || k > maxConn {
					return
				}
				if res.HopLen() > 0 {
					newEdge[k-1].Add(float64(res.NewEdges) / float64(res.HopLen()))
				}
				cumSet[k-1].Add(float64(h.batches[pairIdx].ForwarderSet().Size()))
			}
			if err := h.run(); err != nil {
				return nil, err
			}
		}
		var pts []TrajectoryPoint
		for k := 0; k < maxConn; k++ {
			if newEdge[k].N() == 0 {
				continue
			}
			pts = append(pts, TrajectoryPoint{
				Conn:        k + 1,
				NewEdgeRate: newEdge[k].Mean(),
				CumSetSize:  cumSet[k].Mean(),
			})
		}
		out[strat] = pts
	}
	return out, nil
}
