package core

import (
	"math"
	"slices"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/quality"
)

// testSystem builds a static N-node overlay with warm probes and a system
// around it. maliciousEvery > 0 marks every maliciousEvery-th node.
func testSystem(t *testing.T, n int, seed uint64, maliciousEvery int) *System {
	t.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < n; i++ {
		mal := maliciousEvery > 0 && i%maliciousEvery == 0
		net.Join(0, mal)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	sys, err := NewSystem(DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestStrategyString(t *testing.T) {
	if Random.String() != "random" || UtilityI.String() != "utility-I" || UtilityII.String() != "utility-II" {
		t.Fatal("strategy names wrong")
	}
}

func TestContractTau(t *testing.T) {
	c := ContractWithTau(80, 2)
	if c.Pf != 80 || c.Pr != 160 {
		t.Fatalf("contract %+v", c)
	}
	if c.Tau() != 2 {
		t.Fatalf("tau = %g", c.Tau())
	}
	if (Contract{}).Tau() != 0 {
		t.Fatal("zero contract tau")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Weights: quality.Weights{Selectivity: 0.9, Availability: 0.9}, MinHops: 1, MaxHops: 2},
		func() Config { c := DefaultConfig(); c.MinHops = 0; return c }(),
		func() Config { c := DefaultConfig(); c.MaxHops = 1; c.MinHops = 3; return c }(),
	}
	rng := dist.NewSource(1)
	net := overlay.NewNetwork(3, rng.Split())
	net.Join(0, false)
	probes := probe.NewSet(net, rng.Split(), 60)
	for i, cfg := range bad {
		if _, err := NewSystem(cfg, net, probes, rng); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
	if _, err := NewSystem(DefaultConfig(), nil, probes, rng); err == nil {
		t.Fatal("nil net accepted")
	}
}

func TestNewBatchValidation(t *testing.T) {
	sys := testSystem(t, 10, 1, 0)
	if _, err := sys.NewBatch(0, 0, Contract{Pf: 50}, Random); err == nil {
		t.Fatal("I == R accepted")
	}
	if _, err := sys.NewBatch(0, 99, Contract{Pf: 50}, Random); err == nil {
		t.Fatal("unknown responder accepted")
	}
	if _, err := sys.NewBatch(0, 1, Contract{Pf: -1}, Random); err == nil {
		t.Fatal("negative contract accepted")
	}
	b, err := sys.NewBatch(0, 1, Contract{Pf: 50, Pr: 100}, UtilityI)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == 0 {
		t.Fatal("batch ID not assigned")
	}
}

func TestConnectionEndpoints(t *testing.T) {
	sys := testSystem(t, 20, 2, 0)
	for _, strat := range []Strategy{Random, UtilityI, UtilityII} {
		b, err := sys.NewBatch(0, 19, ContractWithTau(75, 2), strat)
		if err != nil {
			t.Fatal(err)
		}
		res := b.RunConnection()
		if res.Nodes[0] != 0 {
			t.Fatalf("%v: path starts at %d", strat, res.Nodes[0])
		}
		if res.Nodes[len(res.Nodes)-1] != 19 {
			t.Fatalf("%v: path ends at %d", strat, res.Nodes[len(res.Nodes)-1])
		}
		if res.HopLen() < 1 {
			t.Fatalf("%v: hop length %d", strat, res.HopLen())
		}
	}
}

func TestHopBudgetRespected(t *testing.T) {
	sys := testSystem(t, 30, 3, 0)
	for _, strat := range []Strategy{Random, UtilityI, UtilityII} {
		b, _ := sys.NewBatch(0, 29, ContractWithTau(75, 2), strat)
		for i := 0; i < 30; i++ {
			res := b.RunConnection()
			if res.HopLen() > sys.cfg.MaxHops+1 {
				t.Fatalf("%v: hop length %d exceeds budget+delivery", strat, res.HopLen())
			}
		}
	}
}

func TestForwardersExcludeEndpoints(t *testing.T) {
	sys := testSystem(t, 25, 4, 0)
	b, _ := sys.NewBatch(2, 17, ContractWithTau(75, 2), UtilityI)
	for i := 0; i < 20; i++ {
		res := b.RunConnection()
		for _, f := range res.Forwarders() {
			if f == 2 || f == 17 {
				t.Fatalf("endpoint %d in forwarder list", f)
			}
		}
	}
	if m := b.ForwarderSet().Members(); slices.Contains(m, 2) || slices.Contains(m, 17) {
		t.Fatal("endpoint in forwarder set")
	}
}

func TestNoImmediatePingPong(t *testing.T) {
	sys := testSystem(t, 25, 5, 0)
	b, _ := sys.NewBatch(0, 24, ContractWithTau(75, 2), Random)
	for i := 0; i < 30; i++ {
		res := b.RunConnection()
		for j := 2; j < len(res.Nodes); j++ {
			if res.Nodes[j] == res.Nodes[j-2] && res.Nodes[j] != 24 {
				t.Fatalf("immediate ping-pong at %v", res.Nodes)
			}
		}
	}
}

func TestLastEdgeQualityIsOne(t *testing.T) {
	sys := testSystem(t, 20, 6, 0)
	b, _ := sys.NewBatch(0, 19, ContractWithTau(75, 2), UtilityI)
	res := b.RunConnection()
	if got := res.EdgeQualities[len(res.EdgeQualities)-1]; got != 1 {
		t.Fatalf("last edge quality %g", got)
	}
	if len(res.EdgeQualities) != res.HopLen() {
		t.Fatalf("edge qualities %d != hops %d", len(res.EdgeQualities), res.HopLen())
	}
}

func TestUtilityRoutingReusesForwarders(t *testing.T) {
	// The core claim (Fig. 5): after k connections, utility routing's
	// ‖π‖ is far below random routing's.
	sysU := testSystem(t, 40, 7, 0)
	sysR := testSystem(t, 40, 7, 0)
	bu, _ := sysU.NewBatch(0, 39, ContractWithTau(75, 2), UtilityI)
	br, _ := sysR.NewBatch(0, 39, ContractWithTau(75, 2), Random)
	for i := 0; i < 20; i++ {
		bu.RunConnection()
		br.RunConnection()
	}
	if bu.ForwarderSet().Size() >= br.ForwarderSet().Size() {
		t.Fatalf("utility ‖π‖=%d not below random ‖π‖=%d",
			bu.ForwarderSet().Size(), br.ForwarderSet().Size())
	}
}

func TestProp1NewEdgeRates(t *testing.T) {
	// Prop. 1: E[X] under random routing stays high; under utility
	// routing it collapses as the batch progresses.
	sysU := testSystem(t, 40, 8, 0)
	sysR := testSystem(t, 40, 8, 0)
	bu, _ := sysU.NewBatch(0, 39, ContractWithTau(75, 4), UtilityI)
	br, _ := sysR.NewBatch(0, 39, ContractWithTau(75, 4), Random)
	var lateNewU, lateNewR, lateTotU, lateTotR int
	for i := 0; i < 20; i++ {
		ru := bu.RunConnection()
		rr := br.RunConnection()
		if i >= 10 { // steady state
			lateNewU += ru.NewEdges
			lateTotU += ru.HopLen()
			lateNewR += rr.NewEdges
			lateTotR += rr.HopLen()
		}
	}
	rateU := float64(lateNewU) / float64(lateTotU)
	rateR := float64(lateNewR) / float64(lateTotR)
	if rateU >= rateR {
		t.Fatalf("utility new-edge rate %g not below random %g", rateU, rateR)
	}
	if rateU > 0.2 {
		t.Fatalf("utility steady-state new-edge rate %g, want ≈ 0", rateU)
	}
}

func TestSettleMatchesPayoffRule(t *testing.T) {
	sys := testSystem(t, 30, 9, 0)
	b, _ := sys.NewBatch(0, 29, Contract{Pf: 60, Pr: 120}, UtilityI)
	for i := 0; i < 10; i++ {
		b.RunConnection()
	}
	payoffs := b.Settle()
	if len(payoffs) != b.ForwarderSet().Size() {
		t.Fatalf("payoffs %d != ‖π‖ %d", len(payoffs), b.ForwarderSet().Size())
	}
	share := 120.0 / float64(b.ForwarderSet().Size())
	var totalIncome float64
	var totalM int
	for _, p := range payoffs {
		want := float64(p.Forwards)*60 + share
		if math.Abs(p.Income-want) > 1e-9 {
			t.Fatalf("node %d income %g, want %g", p.Node, p.Income, want)
		}
		if math.Abs(p.Net-(p.Income-p.Cost)) > 1e-9 {
			t.Fatal("net != income - cost")
		}
		if p.Forwards != b.Forwards(p.Node) {
			t.Fatal("forwards mismatch")
		}
		totalIncome += p.Income
		totalM += p.Forwards
	}
	// Conservation: Σ income = Σm·Pf + Pr = TotalPaid.
	if math.Abs(totalIncome-b.TotalPaid()) > 1e-9 {
		t.Fatalf("Σincome %g != initiator outlay %g", totalIncome, b.TotalPaid())
	}
	if math.Abs(b.TotalPaid()-(float64(totalM)*60+120)) > 1e-9 {
		t.Fatal("TotalPaid formula wrong")
	}
}

func TestSettleEmptyBatch(t *testing.T) {
	sys := testSystem(t, 10, 10, 0)
	b, _ := sys.NewBatch(0, 9, Contract{Pf: 60, Pr: 120}, UtilityI)
	if got := b.Settle(); got != nil {
		t.Fatalf("payoffs of empty batch: %v", got)
	}
	if b.TotalPaid() != 0 {
		t.Fatal("empty batch paid")
	}
}

func TestGoodPayoffsFilter(t *testing.T) {
	sys := testSystem(t, 30, 11, 3) // every 3rd node malicious
	b, _ := sys.NewBatch(1, 29, ContractWithTau(75, 2), UtilityI)
	for i := 0; i < 15; i++ {
		b.RunConnection()
	}
	for _, p := range b.GoodPayoffs() {
		if p.Malicious {
			t.Fatal("malicious payoff in GoodPayoffs")
		}
		if sys.Net.Node(p.Node).Malicious {
			t.Fatal("mislabelled payoff")
		}
	}
}

func TestMaliciousNodesRouteRandomly(t *testing.T) {
	// With an all-malicious interior, UtilityI must behave statistically
	// like Random: forwarder-set sizes should be comparable (within 25%),
	// whereas an honest UtilityI run is far smaller.
	build := func(seed uint64, maliciousEvery int, strat Strategy) int {
		sys := testSystem(t, 40, seed, maliciousEvery)
		// Make endpoints good for comparability.
		b, _ := sys.NewBatch(1, 39, ContractWithTau(75, 2), strat)
		for i := 0; i < 20; i++ {
			b.RunConnection()
		}
		return b.ForwarderSet().Size()
	}
	allMalU := build(12, 1, UtilityI) // every node malicious
	allMalR := build(12, 1, Random)
	honestU := build(12, 0, UtilityI)
	if honestU >= allMalU {
		t.Fatalf("honest utility ‖π‖=%d should be below all-malicious ‖π‖=%d", honestU, allMalU)
	}
	ratio := float64(allMalU) / float64(allMalR)
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("all-malicious utility (%d) vs random (%d) differ too much", allMalU, allMalR)
	}
}

func TestParticipationGateDeclines(t *testing.T) {
	// With Pf below C^p + C^t every good node declines: all connections
	// go direct, and declines are counted.
	sys := testSystem(t, 20, 13, 0)
	cfg := sys.cfg
	cfg.Cost = game.UniformCost(50, 10) // Pf=20 < 60
	sys2, err := NewSystem(cfg, sys.Net, sys.Probes, dist.NewSource(99))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys2.NewBatch(0, 19, Contract{Pf: 20, Pr: 40}, UtilityI)
	res := b.RunConnection()
	if !res.Direct {
		t.Fatalf("path formed despite universal declines: %v", res.Nodes)
	}
	if b.Declines() == 0 {
		t.Fatal("no declines recorded")
	}
	if b.ForwarderSet().Size() != 0 {
		t.Fatal("forwarder set non-empty")
	}
}

func TestParticipationGateAccepts(t *testing.T) {
	// Pf above the Prop. 3 threshold: nobody declines.
	sys := testSystem(t, 20, 14, 0)
	b, _ := sys.NewBatch(0, 19, Contract{Pf: 100, Pr: 200}, UtilityI)
	for i := 0; i < 10; i++ {
		b.RunConnection()
	}
	if b.Declines() != 0 {
		t.Fatalf("declines = %d with generous contract", b.Declines())
	}
}

func TestMaliciousAcceptRegardless(t *testing.T) {
	// All nodes malicious + starvation contract: adversaries still forward.
	sys := testSystem(t, 20, 15, 1)
	cfg := sys.cfg
	cfg.Cost = game.UniformCost(50, 10)
	sys2, _ := NewSystem(cfg, sys.Net, sys.Probes, dist.NewSource(1))
	b, _ := sys2.NewBatch(0, 19, Contract{Pf: 1, Pr: 1}, UtilityI)
	res := b.RunConnection()
	if res.Direct {
		t.Fatal("malicious nodes declined")
	}
}

func TestDeterministicConnections(t *testing.T) {
	run := func() []overlay.NodeID {
		sys := testSystem(t, 40, 77, 4)
		b, _ := sys.NewBatch(0, 39, ContractWithTau(75, 2), UtilityII)
		var all []overlay.NodeID
		for i := 0; i < 5; i++ {
			all = append(all, b.RunConnection().Nodes...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("paths diverge at %d", i)
		}
	}
}

func TestInitiatorUtilityDecreasesWithForwarderSet(t *testing.T) {
	if AnonymityA(100, 4, 2) <= AnonymityA(100, 4, 8) {
		t.Fatal("A(‖π‖) not decreasing in ‖π‖")
	}
	if AnonymityA(100, 4, 0) != 400 {
		t.Fatalf("A with empty set = %g", AnonymityA(100, 4, 0))
	}
	sys := testSystem(t, 30, 16, 0)
	b, _ := sys.NewBatch(0, 29, Contract{Pf: 10, Pr: 20}, UtilityI)
	for i := 0; i < 10; i++ {
		b.RunConnection()
	}
	u := b.InitiatorUtility(1000)
	expected := AnonymityA(1000, b.ForwarderSet().AvgLen(), b.ForwarderSet().Size()) -
		float64(b.ForwarderSet().Size())*10 - 20
	if math.Abs(u-expected) > 1e-9 {
		t.Fatalf("U_I = %g, want %g", u, expected)
	}
}

func TestOfflineNodesNeverChosen(t *testing.T) {
	sys := testSystem(t, 30, 17, 0)
	// Knock half the nodes offline.
	for id := overlay.NodeID(1); id < 30; id += 2 {
		sys.Net.Leave(1, id, false)
	}
	b, _ := sys.NewBatch(0, 28, ContractWithTau(75, 2), UtilityI)
	for i := 0; i < 10; i++ {
		res := b.RunConnection()
		for _, f := range res.Forwarders() {
			if !sys.Net.Online(f) {
				t.Fatalf("offline node %d forwarded", f)
			}
		}
	}
}

func TestUtilityIIFollowsSPNEOnKnownTopology(t *testing.T) {
	// Hand-built 5-node overlay: 0(I) - {1,2} - 3 - 4(R). Node 1 has far
	// better availability than 2; UM-II must route I→1→3→R style paths,
	// never through 2, once probes have observed the difference.
	rng := dist.NewSource(20)
	net := overlay.NewNetwork(2, rng.Split())
	for i := 0; i < 5; i++ {
		net.Join(0, false)
	}
	n0 := net.Node(0)
	n0.Neighbors = []overlay.NodeID{1, 2}
	net.Node(1).Neighbors = []overlay.NodeID{3}
	net.Node(2).Neighbors = []overlay.NodeID{3}
	net.Node(3).Neighbors = []overlay.NodeID{1, 2}
	probes := probe.NewSet(net, rng.Split(), 60)
	probes.TickAll()
	// Degrade node 2's observed availability at node 0.
	net.Leave(10, 2, false)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	net.Rejoin(100, 2)
	cfg := DefaultConfig()
	cfg.MinHops, cfg.MaxHops = 2, 2
	sys, err := NewSystem(cfg, net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys.NewBatch(0, 4, ContractWithTau(75, 4), UtilityII)
	for i := 0; i < 5; i++ {
		res := b.RunConnection()
		for _, f := range res.Forwarders() {
			if f == 2 {
				t.Fatalf("UM-II routed through low-availability node: %v", res.Nodes)
			}
		}
	}
}

func TestBatchCloseDropsHistory(t *testing.T) {
	sys := testSystem(t, 20, 40, 0)
	b, _ := sys.NewBatch(0, 19, ContractWithTau(75, 2), UtilityI)
	for i := 0; i < 5; i++ {
		b.RunConnection()
	}
	if len(b.hist.Successors(b.Initiator)) == 0 {
		t.Fatal("no history accumulated")
	}
	b.Settle()
	b.Close()
	if b.hist != nil {
		t.Fatal("history not dropped")
	}
}

// Tau returns τ = P_r / P_f, the ratio the paper sweeps in Table 2.
func (c Contract) Tau() float64 {
	if c.Pf == 0 {
		return 0
	}
	return c.Pr / c.Pf
}
