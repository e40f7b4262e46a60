package probe

import (
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
)

// churnedSet builds a GrowUniform(n) overlay and its probe set from seed,
// then runs rounds probing rounds; before rounds 2 and 4 a batch of nodes
// departs for good and every survivor repairs its neighbor list, so the
// later rounds see replaced neighbors and their rand(0,T) initialisations
// — the inputs whose float sums are not exact.
func churnedSet(n, rounds int, seed uint64, reg *telemetry.Registry) (*overlay.Network, *Set) {
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(6, rng.Split())
	net.GrowUniform(0, n)
	set := NewSet(net, rng.Split(), DefaultPeriod)
	if reg != nil {
		set.Instrument(reg)
	}
	plan := rng.Split()
	for round := 0; round < rounds; round++ {
		if round == 2 || round == 4 {
			for k := 0; k < n/10; k++ {
				if id := overlay.NodeID(plan.Intn(n)); net.Online(id) {
					net.Leave(100, id, true)
				}
			}
			for _, id := range net.OnlineIDs() {
				net.RefreshNeighbors(id)
			}
		}
		if round == 3 {
			for k := 0; k < n/20; k++ {
				if id := overlay.NodeID(plan.Intn(n)); net.Online(id) {
					net.Leave(150, id, false) // a miss: decayed next round
				}
			}
		}
		set.TickAll()
	}
	return net, set
}

// TestAvailabilityDeterministic pins α to the bit: two identically seeded
// sets, driven through permanent departures, neighbor repair and offline
// spells, give Float64bits-equal availability for every (owner, neighbor)
// pair, and each estimator's total is the sum of its session times in
// neighbor-list order — not in an iteration order that varies between
// passes over the same data.
func TestAvailabilityDeterministic(t *testing.T) {
	const n, rounds, seed = 2000, 6, 29
	netA, a := churnedSet(n, rounds, seed, nil)
	_, b := churnedSet(n, rounds, seed, nil)
	checked := 0
	for _, id := range netA.OnlineIDs() {
		ea, eb := a.For(id), b.For(id)
		total := 0.0
		for _, v := range netA.Node(id).Neighbors {
			total += ea.SessionTime(v)
		}
		for _, v := range netA.Node(id).Neighbors {
			pa, pb := ea.Availability(v), eb.Availability(v)
			if math.Float64bits(pa) != math.Float64bits(pb) {
				t.Fatalf("α_%d(%d) = %x vs %x", id, v, math.Float64bits(pa), math.Float64bits(pb))
			}
			checked++
		}
		if math.Float64bits(ea.total) != math.Float64bits(total) {
			t.Fatalf("node %d: total %x, neighbor-order sum %x", id, math.Float64bits(ea.total), math.Float64bits(total))
		}
	}
	if checked == 0 {
		t.Fatal("no estimates checked")
	}
}

// TestUpdateCountersFixedPlan pins the probe_* registry totals of a fixed
// plan. Tick adds each of its credit/decay/init counts once per round; the
// wanted totals were recorded when it still added once per neighbor
// update, so batching the adds moved no count.
func TestUpdateCountersFixedPlan(t *testing.T) {
	reg := telemetry.NewRegistry()
	churnedSet(300, 6, 7, reg)
	for _, c := range []struct {
		labels telemetry.Labels
		want   int64
	}{
		{telemetry.Labels{"result": "credit"}, 9050},
		{telemetry.Labels{"result": "decay"}, 220},
		{telemetry.Labels{"result": "init"}, 270},
	} {
		if got := reg.Counter(metricUpdatesTotal, c.labels).Value(); got != c.want {
			t.Errorf("%s%v = %d, want %d", metricUpdatesTotal, c.labels, got, c.want)
		}
	}
	if got, want := reg.Counter(metricTicksTotal, nil).Value(), int64(1590); got != want {
		t.Errorf("%s = %d, want %d", metricTicksTotal, got, want)
	}
}
