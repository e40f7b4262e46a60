package overlay

import (
	"fmt"
	"slices"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/sim"
)

// TestVersionTracksStructuralChanges checks the structural version moves
// on lifecycle transitions and on neighbor repairs that edit the set, and
// stays put for queries and no-op repairs.
func TestVersionTracksStructuralChanges(t *testing.T) {
	net := NewNetwork(3, dist.NewSource(1))
	v := net.Version()
	for i := 0; i < 6; i++ {
		net.Join(0, false)
	}
	if net.Version() == v {
		t.Fatal("Join did not advance version")
	}

	// Queries must not advance it.
	v = net.Version()
	net.OnlineIDs()
	net.NeighborsOf(0)
	net.Online(3)
	net.Availability(5, 0)
	if net.Version() != v {
		t.Fatal("queries advanced version")
	}

	// Top up early joiners (the first nodes joined a sparse network), then
	// check that a repair finding nothing to do is not a structural change.
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	v = net.Version()
	net.RefreshNeighbors(0)
	if net.Version() != v {
		t.Fatal("no-op RefreshNeighbors advanced version")
	}

	net.Leave(1, 2, true) // departs permanently
	if net.Version() == v {
		t.Fatal("Leave did not advance version")
	}

	// Now a repair on a node that held the departed neighbor edits the set.
	v = net.Version()
	refreshed := false
	for _, id := range net.OnlineIDs() {
		if net.IsNeighbor(id, 2) {
			net.RefreshNeighbors(id)
			refreshed = true
			break
		}
	}
	if refreshed && net.Version() == v {
		t.Fatal("neighbor-editing RefreshNeighbors did not advance version")
	}
}

// TestOnlineViewsFollowLifecycle is the table test for the online set
// being the node table's State fields: after every Join, Leave, Rejoin and
// final Leave, Online, OnlineIDs, GoodOnline and OnlineCount must agree
// with a set the test maintains itself.
func TestOnlineViewsFollowLifecycle(t *testing.T) {
	net := NewNetwork(3, dist.NewSource(4))
	online := map[NodeID]bool{}
	malicious := map[NodeID]bool{}
	check := func(step string) {
		t.Helper()
		var ids, good []NodeID
		for id := NodeID(0); int(id) < net.Len(); id++ {
			if net.Online(id) != online[id] {
				t.Fatalf("%s: Online(%d) = %v, want %v", step, id, net.Online(id), online[id])
			}
			if online[id] {
				ids = append(ids, id)
				if !malicious[id] {
					good = append(good, id)
				}
			}
		}
		if net.OnlineCount() != len(ids) {
			t.Fatalf("%s: OnlineCount = %d, want %d", step, net.OnlineCount(), len(ids))
		}
		if got := net.OnlineIDs(); !slices.Equal(got, ids) {
			t.Fatalf("%s: OnlineIDs = %v, want %v", step, got, ids)
		}
		if got := net.GoodOnline(); !slices.Equal(got, good) {
			t.Fatalf("%s: GoodOnline = %v, want %v", step, got, good)
		}
		if net.Online(None) || net.Online(NodeID(net.Len())) {
			t.Fatalf("%s: an ID that names no node reads online", step)
		}
	}
	check("empty")
	steps := []struct {
		op    string
		id    NodeID
		final bool
	}{
		{op: "join"}, {op: "join-malicious"}, {op: "join"}, {op: "join"}, {op: "join-malicious"},
		{op: "leave", id: 2}, {op: "leave", id: 1}, {op: "rejoin", id: 2},
		{op: "leave", id: 4, final: true}, {op: "join"}, {op: "rejoin", id: 1},
		{op: "leave", id: 0, final: true}, {op: "leave", id: 5},
	}
	for i, st := range steps {
		now := sim.Time(i + 1)
		switch st.op {
		case "join", "join-malicious":
			node := net.Join(now, st.op == "join-malicious")
			online[node.ID], malicious[node.ID] = true, node.Malicious
		case "leave":
			net.Leave(now, st.id, st.final)
			online[st.id] = false
		case "rejoin":
			net.Rejoin(now, st.id)
			online[st.id] = true
		}
		check(fmt.Sprintf("step %d (%s %d)", i, st.op, st.id))
	}
}

// TestRefreshWithNothingToReplaceIsInert pins RefreshNeighbors' early
// return: on a full neighbor set with nobody departed it must leave the
// set, Version() and the overlay's RNG stream exactly as a twin network
// that never made the call has them.
func TestRefreshWithNothingToReplaceIsInert(t *testing.T) {
	build := func() *Network {
		net := NewNetwork(3, dist.NewSource(9))
		for i := 0; i < 8; i++ {
			net.Join(0, false)
		}
		for _, id := range net.AllIDs() {
			net.RefreshNeighbors(id) // top up the early joiners
		}
		return net
	}
	net, twin := build(), build()
	net.Leave(1, 5, false) // offline neighbors are kept, not replaced
	twin.Leave(1, 5, false)
	for _, id := range net.OnlineIDs() {
		before := net.NeighborsOf(id)
		net.RefreshNeighbors(id)
		if !slices.Equal(net.NeighborsOf(id), before) {
			t.Fatalf("no-op repair of %d changed its neighbors %v → %v", id, before, net.NeighborsOf(id))
		}
	}
	net.Rejoin(2, 5) // runs the repair itself
	twin.Rejoin(2, 5)
	if net.Version() != twin.Version() {
		t.Fatalf("Version() = %d after no-op repairs, twin has %d", net.Version(), twin.Version())
	}
	a, b := net.Join(3, false), twin.Join(3, false)
	if !slices.Equal(a.Neighbors, b.Neighbors) {
		t.Fatalf("next RNG draw moved: newcomer got %v, twin's got %v", a.Neighbors, b.Neighbors)
	}
}
