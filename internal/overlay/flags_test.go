package overlay

import (
	"slices"
	"testing"
	"testing/quick"

	"p2panon/internal/dist"
	"p2panon/internal/sim"
)

// randomLifecycle drives net through steps random Join, GrowUniform,
// Leave (final and not), Rejoin and RefreshNeighbors calls drawn from rng,
// calling check after each one.
func randomLifecycle(net *Network, rng *dist.Source, steps int, check func(step int, op string)) {
	now := sim.Time(0)
	for step := 0; step < steps; step++ {
		now++
		op := "none"
		switch k := rng.Intn(6); {
		case k == 0 || net.Len() == 0:
			net.Join(now, rng.Intn(4) == 0)
			op = "join"
		case k == 1:
			net.GrowUniform(now, 1+rng.Intn(3))
			op = "grow"
		case k == 2 || k == 3:
			if ids := net.OnlineIDs(); len(ids) > 0 {
				final := rng.Intn(3) == 0
				net.Leave(now, ids[rng.Intn(len(ids))], final)
				op = "leave"
			}
		case k == 4:
			id := NodeID(rng.Intn(net.Len()))
			if net.Node(id).State == Offline {
				net.Rejoin(now, id)
				op = "rejoin"
			}
		default:
			net.RefreshNeighbors(NodeID(rng.Intn(net.Len())))
			op = "refresh"
		}
		check(step, op)
	}
}

// TestQuickOnlineFlagsFollowState checks the dense online flags against
// the node table after every step of random lifecycles: Online(id) is
// Node(id).State == Online for every id, false for negative and
// out-of-range ids, and OnlineIDs lists exactly the online ids ascending.
func TestQuickOnlineFlagsFollowState(t *testing.T) {
	f := func(seed uint64) bool {
		net := NewNetwork(3, dist.NewSource(seed))
		ok := true
		randomLifecycle(net, dist.NewSource(seed^0x5eed), 120, func(step int, op string) {
			var want []NodeID
			for _, id := range net.AllIDs() {
				on := net.Node(id).State == Online
				if net.Online(id) != on {
					t.Errorf("seed %d step %d (%s): Online(%d) = %v, State %v", seed, step, op, id, !on, net.Node(id).State)
					ok = false
				}
				if on {
					want = append(want, id)
				}
			}
			for _, id := range []NodeID{None, -7, NodeID(net.Len()), NodeID(net.Len() + 5)} {
				if net.Online(id) {
					t.Errorf("seed %d step %d (%s): Online(%d) = true for no node", seed, step, op, id)
					ok = false
				}
			}
			if got := net.OnlineIDs(); !slices.Equal(got, want) || len(got) != net.OnlineCount() {
				t.Errorf("seed %d step %d (%s): OnlineIDs = %v, want %v", seed, step, op, got, want)
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNeighborsVersionTracksLists checks the per-node stamp against
// the lists themselves over random lifecycles: whenever a node's neighbor
// list differs from the one last seen, its NeighborsVersion differs from
// the stamp seen with it; and a Touch moves every stamp.
func TestQuickNeighborsVersionTracksLists(t *testing.T) {
	f := func(seed uint64) bool {
		net := NewNetwork(3, dist.NewSource(seed))
		ok := true
		lists := map[NodeID][]NodeID{}
		stamps := map[NodeID]uint64{}
		observe := func(step int, op string) {
			for _, id := range net.AllIDs() {
				cur, stamp := net.Node(id).Neighbors, net.NeighborsVersion(id)
				if prev, seen := lists[id]; seen && !slices.Equal(prev, cur) && stamps[id] == stamp {
					t.Errorf("seed %d step %d (%s): node %d list %v -> %v under one stamp %d", seed, step, op, id, prev, cur, stamp)
					ok = false
				}
				lists[id], stamps[id] = slices.Clone(cur), stamp
			}
		}
		randomLifecycle(net, dist.NewSource(seed^0x5eed), 80, observe)
		net.Touch()
		for _, id := range net.AllIDs() {
			if net.NeighborsVersion(id) == stamps[id] {
				t.Errorf("seed %d: Touch left node %d's stamp at %d", seed, id, stamps[id])
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
