package overlay

import (
	"testing"
	"testing/quick"

	"p2panon/internal/dist"
	"p2panon/internal/sim"
)

func newNet(t *testing.T, degree int, seed uint64) *Network {
	t.Helper()
	return NewNetwork(degree, dist.NewSource(seed))
}

func TestNewNetworkPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewNetwork(0, dist.NewSource(1)) },
		func() { NewNetwork(5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestJoinAssignsIDsSequentially(t *testing.T) {
	n := newNet(t, 3, 1)
	for i := 0; i < 10; i++ {
		node := n.Join(0, false)
		if node.ID != NodeID(i) {
			t.Fatalf("join %d got ID %d", i, node.ID)
		}
		if node.State != Online {
			t.Fatalf("joined node state %v", node.State)
		}
	}
	if n.Len() != 10 || n.OnlineCount() != 10 {
		t.Fatalf("Len=%d Online=%d", n.Len(), n.OnlineCount())
	}
}

func TestNeighborSetProperties(t *testing.T) {
	n := newNet(t, 5, 2)
	for i := 0; i < 40; i++ {
		n.Join(0, false)
	}
	for _, id := range n.AllIDs() {
		node := n.Node(id)
		if len(node.Neighbors) > 5 {
			t.Fatalf("node %d has %d neighbors", id, len(node.Neighbors))
		}
		seen := map[NodeID]bool{}
		for _, v := range node.Neighbors {
			if v == id {
				t.Fatalf("node %d is its own neighbor", id)
			}
			if seen[v] {
				t.Fatalf("node %d has duplicate neighbor %d", id, v)
			}
			if !n.Exists(v) {
				t.Fatalf("node %d has unknown neighbor %d", id, v)
			}
			seen[v] = true
		}
	}
	// Late joiners should have full degree.
	last := n.Node(NodeID(39))
	if len(last.Neighbors) != 5 {
		t.Fatalf("late joiner degree %d", len(last.Neighbors))
	}
}

func TestFirstJoinerHasNoNeighbors(t *testing.T) {
	n := newNet(t, 5, 3)
	first := n.Join(0, false)
	if len(first.Neighbors) != 0 {
		t.Fatalf("first node neighbors: %v", first.Neighbors)
	}
}

func TestLeaveAndRejoin(t *testing.T) {
	n := newNet(t, 3, 4)
	for i := 0; i < 10; i++ {
		n.Join(0, false)
	}
	n.Leave(100, 3, false)
	if n.Online(3) {
		t.Fatal("node 3 still online")
	}
	if n.Node(3).State != Offline {
		t.Fatalf("state %v", n.Node(3).State)
	}
	if n.Node(3).TotalSession != 100 {
		t.Fatalf("session time %v", n.Node(3).TotalSession)
	}
	n.Rejoin(200, 3)
	if !n.Online(3) {
		t.Fatal("node 3 not back online")
	}
	n.Leave(250, 3, true)
	if n.Node(3).State != Departed {
		t.Fatal("node 3 should be departed")
	}
	if n.Node(3).TotalSession != 150 {
		t.Fatalf("total session %v", n.Node(3).TotalSession)
	}
}

func TestRejoinPanicsOnWrongState(t *testing.T) {
	n := newNet(t, 3, 5)
	n.Join(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Rejoin of online node should panic")
		}
	}()
	n.Rejoin(10, 0)
}

func TestLeavePanicsOnOffline(t *testing.T) {
	n := newNet(t, 3, 5)
	n.Join(0, false)
	n.Leave(5, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Leave should panic")
		}
	}()
	n.Leave(10, 0, false)
}

func TestNodePanicsOnUnknownID(t *testing.T) {
	n := newNet(t, 3, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown ID should panic")
		}
	}()
	n.Node(0)
}

func TestAvailabilityGroundTruth(t *testing.T) {
	n := newNet(t, 3, 6)
	n.Join(0, false) // node 0
	// Online [0,100), offline [100,200), online [200,300) -> at t=300,
	// availability = 200/300.
	n.Leave(100, 0, false)
	n.Rejoin(200, 0)
	got := n.Availability(300, 0)
	want := 200.0 / 300.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("availability = %g, want %g", got, want)
	}
}

func TestAvailabilityDeparted(t *testing.T) {
	n := newNet(t, 3, 6)
	n.Join(0, false)
	n.Leave(50, 0, false)
	n.Rejoin(100, 0)
	n.Leave(150, 0, true)
	// Lifetime 150, sessions 100 -> 2/3 regardless of query time.
	got := n.Availability(1000, 0)
	want := 100.0 / 150.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("availability = %g, want %g", got, want)
	}
}

func TestAvailabilityZeroLifetime(t *testing.T) {
	n := newNet(t, 3, 6)
	n.Join(10, false)
	if a := n.Availability(10, 0); a != 0 {
		t.Fatalf("zero-lifetime availability = %g", a)
	}
}

func TestAvailabilityNeverAlwaysOnlineIsOne(t *testing.T) {
	n := newNet(t, 3, 6)
	n.Join(0, false)
	if a := n.Availability(500, 0); a != 1 {
		t.Fatalf("always-online availability = %g", a)
	}
}

func TestRefreshNeighborsDropsDeparted(t *testing.T) {
	n := newNet(t, 4, 7)
	for i := 0; i < 30; i++ {
		n.Join(0, false)
	}
	victim := n.Node(5).Neighbors[0]
	n.Leave(10, victim, true) // departed
	n.RefreshNeighbors(5)
	for _, v := range n.Node(5).Neighbors {
		if v == victim {
			t.Fatal("departed neighbor not dropped")
		}
		if n.Node(v).State == Departed {
			t.Fatal("replacement neighbor is departed")
		}
	}
	if len(n.Node(5).Neighbors) != 4 {
		t.Fatalf("degree after refresh = %d", len(n.Node(5).Neighbors))
	}
}

func TestRefreshNeighborsKeepsOffline(t *testing.T) {
	n := newNet(t, 4, 8)
	for i := 0; i < 30; i++ {
		n.Join(0, false)
	}
	off := n.Node(5).Neighbors[1]
	n.Leave(10, off, false) // just offline
	n.RefreshNeighbors(5)
	found := false
	for _, v := range n.Node(5).Neighbors {
		if v == off {
			found = true
		}
	}
	if !found {
		t.Fatal("offline neighbor was dropped; estimator needs to see absences")
	}
}

func TestGoodOnlineExcludesMalicious(t *testing.T) {
	n := newNet(t, 3, 9)
	for i := 0; i < 10; i++ {
		n.Join(0, i%2 == 0) // even IDs malicious
	}
	good := n.GoodOnline()
	if len(good) != 5 {
		t.Fatalf("good count %d", len(good))
	}
	for _, id := range good {
		if n.Node(id).Malicious {
			t.Fatalf("malicious node %d in GoodOnline", id)
		}
	}
}

func TestOnlineIDsSorted(t *testing.T) {
	n := newNet(t, 3, 10)
	for i := 0; i < 20; i++ {
		n.Join(0, false)
	}
	n.Leave(1, 7, false)
	ids := n.OnlineIDs()
	if len(ids) != 19 {
		t.Fatalf("online count %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("OnlineIDs not sorted")
		}
		if ids[i] == 7 || ids[i-1] == 7 {
			t.Fatal("offline node listed")
		}
	}
}

func TestIsNeighborAndNeighborsOfCopy(t *testing.T) {
	n := newNet(t, 3, 11)
	for i := 0; i < 10; i++ {
		n.Join(0, false)
	}
	nb := n.NeighborsOf(9)
	if len(nb) == 0 {
		t.Fatal("no neighbors")
	}
	if !n.IsNeighbor(9, nb[0]) {
		t.Fatal("IsNeighbor false for actual neighbor")
	}
	// Mutating the copy must not corrupt the node.
	nb[0] = 999
	if n.IsNeighbor(9, 999) {
		t.Fatal("NeighborsOf returned aliased slice")
	}
}

func TestDeterministicTopology(t *testing.T) {
	build := func() [][]NodeID {
		n := newNet(t, 5, 42)
		for i := 0; i < 40; i++ {
			n.Join(0, false)
		}
		var out [][]NodeID
		for _, id := range n.AllIDs() {
			out = append(out, n.NeighborsOf(id))
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("node %d neighbor count differs", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("node %d neighbor %d differs", i, j)
			}
		}
	}
}

// Property: availability is always in [0, 1] under arbitrary leave/rejoin
// schedules.
func TestQuickAvailabilityBounds(t *testing.T) {
	f := func(gaps []uint8) bool {
		n := NewNetwork(2, dist.NewSource(99))
		n.Join(0, false)
		now := 0.0
		online := true
		for _, g := range gaps {
			now += float64(g) + 1
			if online {
				n.Leave(timeOf(now), 0, false)
			} else {
				n.Rejoin(timeOf(now), 0)
			}
			online = !online
			a := n.Availability(timeOf(now+1), 0)
			if a < 0 || a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func timeOf(s float64) sim.Time { return sim.Time(s) }

func TestOnChurnNotifiesTransitions(t *testing.T) {
	n := NewNetwork(3, dist.NewSource(7))
	type event struct {
		id NodeID
		s  State
	}
	var got []event
	n.OnChurn(func(id NodeID, s State) { got = append(got, event{id, s}) })
	n.OnChurn(nil) // must be ignored

	a := n.Join(0, false)
	b := n.Join(1, false)
	n.Leave(5, a.ID, false)
	n.Rejoin(8, a.ID)
	n.Leave(9, b.ID, true)

	want := []event{
		{a.ID, Online},
		{b.ID, Online},
		{a.ID, Offline},
		{a.ID, Online},
		{b.ID, Departed},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Availability returns the node's ground-truth availability at time now:
// the ratio of accumulated session time to lifetime, per the paper's §2.1
// definition. A node observed for zero lifetime has availability 0.
func (n *Network) Availability(now sim.Time, id NodeID) float64 {
	node := n.Node(id)
	total := node.TotalSession
	if node.State == Online {
		total += now - node.sessionStart
	}
	life := now - node.FirstJoin
	if node.State == Departed {
		life = node.FinalDeparture - node.FirstJoin
	}
	if life <= 0 {
		return 0
	}
	a := float64(total) / float64(life)
	if a > 1 {
		a = 1
	}
	return a
}
