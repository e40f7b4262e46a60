package crowds

import (
	"math"
	"testing"

	"p2panon/internal/adversary"
	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
)

// TestCrowdsCoinMatchesAnalyticLength cross-validates the simulator's
// Crowds-coin termination against Reiter-Rubin's closed-form expected path
// length: with a dense overlay (so candidate exhaustion never truncates
// paths) and random routing, the empirical mean must match
// 2 + pf/(1−pf).
func TestCrowdsCoinMatchesAnalyticLength(t *testing.T) {
	const pf = 0.7
	rng := dist.NewSource(21)
	net := overlay.NewNetwork(10, rng.Split())
	for i := 0; i < 40; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	probes.TickAll()
	cfg := core.DefaultConfig()
	cfg.Termination = core.CrowdsCoin
	cfg.ForwardProb = pf
	// A constant, effectively-unreachable budget: the drawn budget is
	// uniform in [MinHops, MaxHops], and low draws would truncate the
	// geometric coin sequence and bias the mean length down.
	cfg.MinHops, cfg.MaxHops = 60, 60
	sys, err := core.NewSystem(cfg, net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewBatch(0, 39, core.ContractWithTau(75, 2), core.Random)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const k = 4000
	for i := 0; i < k; i++ {
		total += b.RunConnection().HopLen()
	}
	mean := float64(total) / k
	want := ExpectedPathLength(pf)
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("simulated mean length %g, analytic %g", mean, want)
	}
}

// TestPredecessorExposureNearTheory compares the coalition's
// first-collaborator predecessor observations against the Reiter-Rubin
// posterior. The simulator's candidate filtering (no immediate ping-pong,
// no routing through I/R) perturbs the uniform-choice assumption, so we
// assert agreement within a loose band.
func TestPredecessorExposureNearTheory(t *testing.T) {
	const (
		pf = 0.75
		n  = 40
		c  = 6
	)
	rng := dist.NewSource(22)
	net := overlay.NewNetwork(12, rng.Split())
	for i := 0; i < n; i++ {
		net.Join(0, i < c) // first c nodes collude
	}
	// Join order biases early nodes' neighbor sets toward each other;
	// redraw every neighbor set over the full population so the topology
	// matches the analytic model's uniform-choice assumption.
	for _, id := range net.AllIDs() {
		net.Node(id).Neighbors = nil
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	probes.TickAll()
	cfg := core.DefaultConfig()
	cfg.Termination = core.CrowdsCoin
	cfg.ForwardProb = pf
	cfg.MinHops, cfg.MaxHops = 60, 60
	sys, err := core.NewSystem(cfg, net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	var members []overlay.NodeID
	for i := 0; i < c; i++ {
		members = append(members, overlay.NodeID(i))
	}

	exposedTotal, observedTotal := 0, 0
	good := net.GoodOnline()
	pick := dist.NewSource(23)
	// Many single-connection batches with random good endpoints
	// (per-connection first-collaborator statistics over a uniform
	// initiator, matching the analytic setting).
	for trial := 0; trial < 4000; trial++ {
		coalition := adversary.NewCoalition(members)
		I := dist.Choice(pick, good)
		R := I
		for R == I {
			R = dist.Choice(pick, good)
		}
		b, err := sys.NewBatch(I, R, core.ContractWithTau(75, 2), core.Random)
		if err != nil {
			t.Fatal(err)
		}
		res := b.RunConnection()
		coalition.ObservePath(res)
		// First collaborator on the path: find it and check predecessor.
		for i := 1; i < len(res.Nodes)-1; i++ {
			if coalition.Contains(res.Nodes[i]) {
				observedTotal++
				if res.Nodes[i-1] == I {
					exposedTotal++
				}
				break
			}
		}
	}
	if observedTotal == 0 {
		t.Fatal("coalition never appeared on any path")
	}
	got := float64(exposedTotal) / float64(observedTotal)
	want, err := Params{N: n, C: c, Pf: pf}.FirstCollaboratorSeesInitiator()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.12 {
		t.Fatalf("simulated exposure %g, analytic %g", got, want)
	}
}
