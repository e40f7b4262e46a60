package probe

import (
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
)

// TestSetVersionAdvancesPerTick checks the set-wide version moves when any
// member estimator ticks, and that queries leave it alone.
func TestSetVersionAdvancesPerTick(t *testing.T) {
	rng := dist.NewSource(1)
	net := overlay.NewNetwork(3, rng.Split())
	for i := 0; i < 5; i++ {
		net.Join(0, false)
	}
	set := NewSet(net, rng.Split(), DefaultPeriod)
	v := set.Version()
	set.TickAll()
	if set.Version() == v {
		t.Fatal("TickAll did not advance set version")
	}
	v = set.Version()
	set.For(0).Availability(1)
	set.For(0).Snapshot()
	if set.Version() != v {
		t.Fatal("queries advanced set version")
	}
	set.For(0).Tick()
	if set.Version() != v+1 {
		t.Fatalf("single Tick advanced version by %d, want 1", set.Version()-v)
	}
}

// TestTickAllVersionCount pins the version bump: one TickAll over m
// online nodes advances the set version by exactly m.
func TestTickAllVersionCount(t *testing.T) {
	rng := dist.NewSource(5)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < 20; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	set := NewSet(net, rng.Split(), 60)
	before := set.Version()
	set.TickAll()
	if got, want := set.Version()-before, uint64(20); got != want {
		t.Fatalf("version advanced %d, want %d", got, want)
	}
}

// TestAvailabilityCachedTotalMatchesFreshSum drives churn through several
// ticks and checks the cached-total Availability is bit-equal to a fresh
// sum over the tracked session times in neighbor-list order.
func TestAvailabilityCachedTotalMatchesFreshSum(t *testing.T) {
	rng := dist.NewSource(7)
	net := overlay.NewNetwork(4, rng.Split())
	for i := 0; i < 8; i++ {
		net.Join(0, false)
	}
	set := NewSet(net, rng.Split(), DefaultPeriod)
	for tick := 0; tick < 6; tick++ {
		if tick == 3 {
			net.Leave(10, 1, false) // a miss: decay path
		}
		set.TickAll()
		for _, id := range net.OnlineIDs() {
			est := set.For(id)
			total := 0.0
			for _, v := range est.session {
				total += v
			}
			for k, u := range est.nbr {
				want := 0.0
				if total > 0 {
					want = est.session[k] / total
				} else {
					want = 1 / float64(len(est.nbr))
				}
				if got := est.Availability(u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("tick %d: Availability(%d→%d) = %g, want %g", tick, id, u, got, want)
				}
			}
		}
	}
}
