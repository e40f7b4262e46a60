package adversary

import (
	"testing"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
)

func testNet(t *testing.T, n int) *overlay.Network {
	t.Helper()
	net := overlay.NewNetwork(5, dist.NewSource(1))
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	return net
}

// markFirst flags nodes 0 … k−1 as malicious.
func markFirst(net *overlay.Network, k int) {
	for i := 0; i < k; i++ {
		net.Node(overlay.NodeID(i)).Malicious = true
	}
}

func TestHighAvailabilityRevives(t *testing.T) {
	net := testNet(t, 10)
	markFirst(net, 3)       // nodes 0,1,2
	net.Leave(10, 0, false) // malicious offline
	net.Leave(10, 5, false) // good offline
	revived := HighAvailability(net, 20)
	if revived != 1 {
		t.Fatalf("revived %d, want 1", revived)
	}
	if !net.Online(0) {
		t.Fatal("malicious node not revived")
	}
	if net.Online(5) {
		t.Fatal("good node wrongly revived")
	}
}

func TestHighAvailabilityIgnoresDeparted(t *testing.T) {
	net := testNet(t, 10)
	markFirst(net, 3)
	net.Leave(10, 1, true) // permanent departure
	if revived := HighAvailability(net, 20); revived != 0 {
		t.Fatalf("revived %d departed nodes", revived)
	}
}

func TestAttachHighAvailability(t *testing.T) {
	net := testNet(t, 10)
	markFirst(net, 2)
	e := sim.NewEngine()
	cancel := AttachHighAvailability(e, net, 30)
	e.AfterFunc(10, func(*sim.Engine) { net.Leave(10, 0, false) })
	e.RunUntil(60)
	if !net.Online(0) {
		t.Fatal("attached attack did not revive node")
	}
	cancel()
}

// pathResult builds a fake core.PathResult with the given node chain.
func pathResult(conn int, nodes ...overlay.NodeID) *core.PathResult {
	return &core.PathResult{Conn: conn, Nodes: nodes}
}

func TestCoalitionObservePath(t *testing.T) {
	c := NewCoalition([]overlay.NodeID{2, 4})
	// Path I=0 → 1 → 2 → 3 → 4 → R=9; members 2 and 4 observe.
	res := pathResult(1, 0, 1, 2, 3, 4, 9)
	if got := c.ObservePath(res); got != 2 {
		t.Fatalf("gained %d observations", got)
	}
	if c.Observations() != 2 {
		t.Fatalf("stored %d", c.Observations())
	}
	if c.Members() != 2 || !c.Contains(2) || c.Contains(3) {
		t.Fatal("membership wrong")
	}
}

func TestCoalitionIgnoresEndpoints(t *testing.T) {
	// Even if I or R were (absurdly) coalition members, interior-only
	// observation applies.
	c := NewCoalition([]overlay.NodeID{0, 9})
	res := pathResult(1, 0, 1, 9)
	if got := c.ObservePath(res); got != 0 {
		t.Fatalf("gained %d, want 0", got)
	}
}

func TestFirstHopExposures(t *testing.T) {
	c := NewCoalition([]overlay.NodeID{1, 4})
	// conn 1: member 1 is the first hop -> sees initiator 0 directly.
	c.ObservePath(pathResult(1, 0, 1, 3, 9))
	// conn 2: member 4 is deep in the path -> sees only relay 3.
	c.ObservePath(pathResult(2, 0, 2, 3, 4, 9))
	exposed, total := c.FirstHopExposures(0)
	if total != 2 {
		t.Fatalf("total observed connections %d", total)
	}
	if exposed != 1 {
		t.Fatalf("exposed %d, want 1", exposed)
	}
}

func TestGuessInitiatorChainsSegments(t *testing.T) {
	// Path 0 → 5 → 6 → 9 with colluders {5, 6}: 5's observation head has
	// predecessor 0 (the initiator); 6 is 5's successor so it is not a
	// head.
	c := NewCoalition([]overlay.NodeID{5, 6})
	c.ObservePath(pathResult(3, 0, 5, 6, 9))
	guess, ok := c.GuessInitiator(3)
	if !ok {
		t.Fatal("no guess")
	}
	if guess != 0 {
		t.Fatalf("guess = %d, want 0", guess)
	}
}

func TestGuessInitiatorDeepObserverWrong(t *testing.T) {
	// Colluder sits late in the path: its guess is a relay, not I.
	c := NewCoalition([]overlay.NodeID{7})
	c.ObservePath(pathResult(1, 0, 3, 5, 7, 9))
	guess, ok := c.GuessInitiator(1)
	if !ok {
		t.Fatal("no guess")
	}
	if guess != 5 {
		t.Fatalf("guess = %d, want relay 5", guess)
	}
}

func TestGuessInitiatorUnobservedConnection(t *testing.T) {
	c := NewCoalition([]overlay.NodeID{7})
	if _, ok := c.GuessInitiator(99); ok {
		t.Fatal("guess for unobserved connection")
	}
}

func TestGuessAccuracy(t *testing.T) {
	c := NewCoalition([]overlay.NodeID{1})
	c.ObservePath(pathResult(1, 0, 1, 9))    // first hop: correct guess
	c.ObservePath(pathResult(2, 0, 3, 1, 9)) // deep: wrong guess (3)
	acc := c.GuessAccuracy(0)
	if acc != 0.5 {
		t.Fatalf("accuracy = %g, want 0.5", acc)
	}
	empty := NewCoalition(nil)
	if empty.GuessAccuracy(0) != 0 {
		t.Fatal("empty coalition accuracy should be 0")
	}
}

// Observations returns the number of stored observations.
func (c *Coalition) Observations() int { return len(c.obs) }
