package experiment

import (
	"testing"

	"p2panon/internal/core"
	"p2panon/internal/sim"
)

func TestTrafficAnalysisRanksInitiatorWell(t *testing.T) {
	// A recurring pair against quiet-ish background: the correlator
	// should place the true initiator near the top of the suspect list.
	s := Quick()
	res, err := RunTrafficAnalysis(s, sim.Minutes(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 {
		t.Fatal("no trials scored")
	}
	if res.MeanRank < 1 {
		t.Fatalf("mean rank %g", res.MeanRank)
	}
	// The attack works: the initiator ranks far above median.
	if res.MeanRank > float64(res.Population)/2 {
		t.Fatalf("mean rank %g of %d — attack should beat random guessing",
			res.MeanRank, res.Population)
	}
	if res.IdentifiedRate < 0 || res.IdentifiedRate > 1 {
		t.Fatalf("identified rate %g", res.IdentifiedRate)
	}
}

func TestTrafficAnalysisValidation(t *testing.T) {
	if _, err := RunTrafficAnalysis(Quick(), 0, 1); err == nil {
		t.Fatal("zero epoch accepted")
	}
}

func TestTrajectoryConvergence(t *testing.T) {
	s := Quick()
	trajs, err := RunTrajectory(s, []core.Strategy{core.Random, core.UtilityI}, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := trajs[core.UtilityI]
	r := trajs[core.Random]
	if len(u) < 5 || len(r) < 5 {
		t.Fatalf("trajectory lengths %d/%d", len(u), len(r))
	}
	// First connection: essentially everything is new (an edge revisited
	// within the same connection counts as new only once, so the rate can
	// dip slightly below 1).
	if u[0].NewEdgeRate < 0.9 {
		t.Fatalf("first connection new-edge rate %g", u[0].NewEdgeRate)
	}
	// Utility routing converges: late new-edge rate far below early and
	// far below random's.
	last := u[len(u)-1]
	if last.NewEdgeRate > 0.3 {
		t.Fatalf("utility trajectory did not converge: %g", last.NewEdgeRate)
	}
	lastR := r[len(r)-1]
	if last.NewEdgeRate >= lastR.NewEdgeRate {
		t.Fatalf("utility late rate %g not below random %g", last.NewEdgeRate, lastR.NewEdgeRate)
	}
	// Cumulative set sizes are non-decreasing.
	for i := 1; i < len(u); i++ {
		if u[i].CumSetSize < u[i-1].CumSetSize-1e-9 {
			t.Fatal("cumulative ‖π‖ decreased")
		}
	}
	// Convergence point: utility reaches <0.3 much earlier than random
	// (which never does in a quick run).
	cu := ConvergencePoint(u, 0.3)
	cr := ConvergencePoint(r, 0.3)
	if cu == -1 {
		t.Fatal("utility never converged")
	}
	if cr != -1 && cr <= cu {
		t.Fatalf("random converged at %d before utility at %d", cr, cu)
	}
}

func TestConvergencePointEdgeCases(t *testing.T) {
	pts := []TrajectoryPoint{{Conn: 1, NewEdgeRate: 1}, {Conn: 2, NewEdgeRate: 0.1}}
	if got := ConvergencePoint(pts, 0.3); got != 2 {
		t.Fatalf("convergence at %d", got)
	}
	if got := ConvergencePoint(pts, 0.01); got != -1 {
		t.Fatalf("convergence at %d, want -1", got)
	}
	if got := ConvergencePoint(nil, 0.5); got != -1 {
		t.Fatalf("empty trajectory convergence %d", got)
	}
}

// ConvergencePoint summarises a trajectory: the connection index by which
// the per-connection new-edge rate first drops below the threshold, or -1
// if it never does.
func ConvergencePoint(pts []TrajectoryPoint, threshold float64) int {
	for _, p := range pts {
		if p.NewEdgeRate < threshold {
			return p.Conn
		}
	}
	return -1
}
