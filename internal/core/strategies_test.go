package core

import (
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
)

func TestFixedPathStrategyString(t *testing.T) {
	if FixedPath.String() != "fixed-path" {
		t.Fatalf("name %q", FixedPath.String())
	}
	if HopBudget.String() != "hop-budget" || CrowdsCoin.String() != "crowds-coin" {
		t.Fatal("termination names wrong")
	}
}

func TestCrowdsConfigValidation(t *testing.T) {
	rng := dist.NewSource(1)
	net := overlay.NewNetwork(3, rng.Split())
	net.Join(0, false)
	probes := probe.NewSet(net, rng.Split(), 60)
	for _, pf := range []float64{0, 1, -0.5, 1.5} {
		cfg := DefaultConfig()
		cfg.Termination = CrowdsCoin
		cfg.ForwardProb = pf
		if _, err := NewSystem(cfg, net, probes, rng); err == nil {
			t.Fatalf("p_f=%g accepted", pf)
		}
	}
	cfg := DefaultConfig()
	cfg.Termination = CrowdsCoin
	cfg.ForwardProb = 0.75
	if _, err := NewSystem(cfg, net, probes, rng); err != nil {
		t.Fatal(err)
	}
}

// crowdsSystem builds a system with Crowds-coin termination.
func crowdsSystem(t *testing.T, pf float64, seed uint64) *System {
	t.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < 40; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	cfg := DefaultConfig()
	cfg.Termination = CrowdsCoin
	cfg.ForwardProb = pf
	cfg.MaxHops = 20
	sys, err := NewSystem(cfg, net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCrowdsCoinPathLengths(t *testing.T) {
	// With p_f, interior hops continue with prob p_f: hop count beyond
	// the first follows a geometric law; mean path length in edges is
	// roughly 2 + p_f/(1-p_f). Allow a generous band.
	const pf = 0.75
	sys := crowdsSystem(t, pf, 5)
	b, _ := sys.NewBatch(0, 39, ContractWithTau(75, 2), Random)
	var lens []float64
	for i := 0; i < 300; i++ {
		lens = append(lens, float64(b.RunConnection().HopLen()))
	}
	mean := 0.0
	for _, v := range lens {
		mean += v
	}
	mean /= float64(len(lens))
	want := 2 + pf/(1-pf) // ≈ 5
	if math.Abs(mean-want) > 1.5 {
		t.Fatalf("mean path length %g, want ≈ %g", mean, want)
	}
	// Lengths must vary (coin, not budget).
	allSame := true
	for _, v := range lens {
		if v != lens[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("Crowds-coin produced constant path lengths")
	}
}

func TestCrowdsCoinShortProbShortPaths(t *testing.T) {
	sysShort := crowdsSystem(t, 0.2, 6)
	sysLong := crowdsSystem(t, 0.9, 6)
	mean := func(sys *System) float64 {
		b, _ := sys.NewBatch(0, 39, ContractWithTau(75, 2), Random)
		total := 0
		const n = 200
		for i := 0; i < n; i++ {
			total += b.RunConnection().HopLen()
		}
		return float64(total) / n
	}
	if mean(sysShort) >= mean(sysLong) {
		t.Fatal("higher p_f should give longer paths")
	}
}

func TestCrowdsCoinRespectsMaxHops(t *testing.T) {
	sys := crowdsSystem(t, 0.99, 7)
	sys.cfg.MaxHops = 8
	b, _ := sys.NewBatch(0, 39, ContractWithTau(75, 2), Random)
	for i := 0; i < 100; i++ {
		if got := b.RunConnection().HopLen(); got > 9 {
			t.Fatalf("path length %d exceeds cap", got)
		}
	}
}

func TestCrowdsWithUtilityRoutingStillConcentrates(t *testing.T) {
	sysU := crowdsSystem(t, 0.75, 8)
	sysR := crowdsSystem(t, 0.75, 8)
	bu, _ := sysU.NewBatch(0, 39, ContractWithTau(75, 2), UtilityI)
	br, _ := sysR.NewBatch(0, 39, ContractWithTau(75, 2), Random)
	for i := 0; i < 20; i++ {
		bu.RunConnection()
		br.RunConnection()
	}
	if bu.ForwarderSet().Size() >= br.ForwarderSet().Size() {
		t.Fatalf("utility ‖π‖=%d not below random %d under Crowds termination",
			bu.ForwarderSet().Size(), br.ForwarderSet().Size())
	}
}

func TestFixedPathReusesExactPath(t *testing.T) {
	sys := testSystem(t, 30, 9, 0)
	b, _ := sys.NewBatch(0, 29, ContractWithTau(75, 2), FixedPath)
	first := b.RunConnection()
	for i := 0; i < 10; i++ {
		res := b.RunConnection()
		if len(res.Nodes) != len(first.Nodes) {
			t.Fatalf("fixed path changed: %v vs %v", first.Nodes, res.Nodes)
		}
		for j := range res.Nodes {
			if res.Nodes[j] != first.Nodes[j] {
				t.Fatalf("fixed path changed: %v vs %v", first.Nodes, res.Nodes)
			}
		}
	}
	// ‖π‖ equals the relay count of the single path.
	if b.ForwarderSet().Size() != first.HopLen()-1 {
		t.Fatalf("‖π‖ = %d, want %d", b.ForwarderSet().Size(), first.HopLen()-1)
	}
}

func TestFixedPathReformsOnChurn(t *testing.T) {
	sys := testSystem(t, 30, 10, 0)
	b, _ := sys.NewBatch(0, 29, ContractWithTau(75, 2), FixedPath)
	first := b.RunConnection()
	victim := first.Forwarders()[0]
	sys.Net.Leave(10, victim, false)
	second := b.RunConnection()
	for _, f := range second.Forwarders() {
		if f == victim {
			t.Fatal("offline relay still on fixed path")
		}
	}
	// The new path counts as a reformation: forwarder set grew.
	if b.ForwarderSet().Size() <= first.HopLen()-1 {
		t.Fatalf("‖π‖ = %d did not grow after reformation", b.ForwarderSet().Size())
	}
}

func TestFixedPathEndpointsExcluded(t *testing.T) {
	sys := testSystem(t, 30, 11, 0)
	b, _ := sys.NewBatch(3, 17, ContractWithTau(75, 2), FixedPath)
	for i := 0; i < 5; i++ {
		res := b.RunConnection()
		for _, f := range res.Forwarders() {
			if f == 3 || f == 17 {
				t.Fatalf("endpoint on source-routed path: %v", res.Nodes)
			}
		}
	}
}

func TestFixedPathSettles(t *testing.T) {
	sys := testSystem(t, 30, 12, 0)
	b, _ := sys.NewBatch(0, 29, Contract{Pf: 10, Pr: 50}, FixedPath)
	for i := 0; i < 5; i++ {
		b.RunConnection()
	}
	payoffs := b.Settle()
	if len(payoffs) == 0 {
		t.Fatal("no payoffs")
	}
	total := 0.0
	for _, p := range payoffs {
		total += p.Income
	}
	if math.Abs(total-b.TotalPaid()) > 1e-9 {
		t.Fatalf("conservation broken: %g vs %g", total, b.TotalPaid())
	}
}

func TestFixedPathTinyNetwork(t *testing.T) {
	// Only I and R online: the source path is empty, delivery is direct.
	rng := dist.NewSource(13)
	net := overlay.NewNetwork(2, rng.Split())
	net.Join(0, false)
	net.Join(0, false)
	probes := probe.NewSet(net, rng.Split(), 60)
	sys, err := NewSystem(DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys.NewBatch(0, 1, ContractWithTau(75, 2), FixedPath)
	res := b.RunConnection()
	if !res.Direct {
		t.Fatalf("expected direct delivery, got %v", res.Nodes)
	}
}

func TestPositionAwareRoutingWorks(t *testing.T) {
	// Position-aware selectivity must run end to end and stay in the same
	// behavioural regime as the default (utility ≪ random).
	rng := dist.NewSource(30)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < 40; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	cfg := DefaultConfig()
	cfg.PositionAware = true
	sys, err := NewSystem(cfg, net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	bu, _ := sys.NewBatch(0, 39, ContractWithTau(75, 2), UtilityI)
	br, _ := sys.NewBatch(1, 38, ContractWithTau(75, 2), Random)
	var paths [][]overlay.NodeID
	for i := 0; i < 20; i++ {
		paths = append(paths, bu.RunConnection().Nodes)
		br.RunConnection()
	}
	// The quality the rule reads is w_s·σ + w_a·α: σ over the connections
	// on which the holder, at the same position, took the same edge, read
	// here off the realised paths, and α from the holder's estimator. A
	// hop from the initiator scores position-free; the delivery edge
	// scores 1.
	type hop struct{ pred, cur, next overlay.NodeID }
	uses := make(map[hop]map[int]bool)
	for c, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			h := hop{overlay.None, p[i], p[i+1]}
			if i > 0 {
				h.pred = p[i-1]
			}
			if uses[h] == nil {
				uses[h] = make(map[int]bool)
			}
			uses[h][c] = true
		}
	}
	for h, conns := range uses {
		want := 1.0
		if h.next != bu.Responder {
			sigma := min(float64(len(conns))/float64(len(paths)-1), 1)
			want = cfg.Weights.Edge(sigma, probes.For(h.cur).Availability(h.next))
		}
		if got := bu.Quality(h.cur, h.pred, h.next); got != want {
			t.Fatalf("q(%d→%d after %d) = %v, want %v", h.cur, h.next, h.pred, got, want)
		}
	}
	if bu.ForwarderSet().Size() >= br.ForwarderSet().Size() {
		t.Fatalf("position-aware utility ‖π‖=%d not below random %d",
			bu.ForwarderSet().Size(), br.ForwarderSet().Size())
	}
	if bu.NewEdgeRate() >= br.NewEdgeRate() {
		t.Fatalf("position-aware new-edge rate %g not below random %g",
			bu.NewEdgeRate(), br.NewEdgeRate())
	}
}
