package probe

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
)

// buildNet creates an n-node static overlay with degree d.
func buildNet(t *testing.T, n, d int, seed uint64) *overlay.Network {
	t.Helper()
	net := overlay.NewNetwork(d, dist.NewSource(seed))
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	// Early joiners saw few online peers; top their neighbor sets up.
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	return net
}

func TestInitialSessionTimesZero(t *testing.T) {
	net := buildNet(t, 10, 4, 1)
	est := NewEstimator(5, net, dist.NewSource(2), DefaultPeriod)
	for _, v := range net.NeighborsOf(5) {
		if est.SessionTime(v) != 0 {
			t.Fatalf("neighbor %d initial session %g", v, est.SessionTime(v))
		}
	}
}

func TestUninformativePriorIsUniform(t *testing.T) {
	net := buildNet(t, 10, 4, 1)
	est := NewEstimator(5, net, dist.NewSource(2), DefaultPeriod)
	nb := net.NeighborsOf(5)
	for _, v := range nb {
		want := 1.0 / float64(len(nb))
		if got := est.Availability(v); math.Abs(got-want) > 1e-12 {
			t.Fatalf("prior availability %g, want %g", got, want)
		}
	}
	if got := est.Availability(overlay.NodeID(999)); got != 0 {
		t.Fatalf("unknown neighbor availability %g", got)
	}
}

func TestTickCreditsLiveNeighbors(t *testing.T) {
	net := buildNet(t, 10, 4, 3)
	est := NewEstimator(0, net, dist.NewSource(4), 60)
	est.Tick()
	est.Tick()
	for _, v := range net.NeighborsOf(0) {
		if got := est.SessionTime(v); got != 120 {
			t.Fatalf("session time %g after 2 ticks, want 120", got)
		}
	}
	if est.Probes() != 2 {
		t.Fatalf("probes = %d", est.Probes())
	}
}

// TestSteadyStateTickAllocatesNothing pins that a probing round over a
// settled neighbor set — the case TickAll hits for every online node,
// every period — touches no heap: the neighbor list is read in place and
// the session times are updated in place. One neighbor is offline so both
// the credit and the decay branch run. Once both session buffers have
// grown, a round in which a neighbor was replaced allocates nothing
// either: it rebuilds into the spare buffer and swaps.
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	net := buildNet(t, 12, 6, 3)
	est := NewEstimator(5, net, dist.NewSource(2), DefaultPeriod)
	net.Leave(1, net.NeighborsOf(5)[0], false)
	est.Tick()
	if allocs := testing.AllocsPerRun(100, est.Tick); allocs != 0 {
		t.Fatalf("steady-state Tick allocates %v objects per round, want 0", allocs)
	}

	// Alternate between two lists that differ in one neighbor, so every
	// round replaces it (and draws its rand(0,T) initialisation).
	node := net.Node(5)
	lists := [2][]overlay.NodeID{net.NeighborsOf(5), net.NeighborsOf(5)}
	for _, v := range net.AllIDs() {
		if v != 5 && !slices.Contains(lists[0], v) {
			lists[1][len(lists[1])-1] = v
			break
		}
	}
	round := 0
	replace := func() {
		round++
		node.Neighbors = lists[round%2]
		est.Tick()
	}
	replace() // warm-up: grows the spare buffer
	if allocs := testing.AllocsPerRun(100, replace); allocs != 0 {
		t.Fatalf("Tick after a neighbor replacement allocates %v objects per round, want 0", allocs)
	}
}

// TestSetForKnownAllocatesNothing pins that looking up an existing
// estimator — done per node per solve by the routing layer — is an index.
func TestSetForKnownAllocatesNothing(t *testing.T) {
	net := buildNet(t, 12, 4, 3)
	set := NewSet(net, dist.NewSource(2), DefaultPeriod)
	set.TickAll()
	if allocs := testing.AllocsPerRun(100, func() { set.For(7) }); allocs != 0 {
		t.Fatalf("Set.For on a known id allocates %v objects, want 0", allocs)
	}
}

// TestTickAllAllocatesNothing pins that a probing round over the whole
// set — every 8th connection of the benchmark's churn world — touches no
// heap once every online node has its estimator: TickAll walks the
// overlay's online flags in place instead of collecting the online ids
// and their estimators into fresh slices. Two nodes are offline, so the
// walk skips entries and the decay branch runs.
func TestTickAllAllocatesNothing(t *testing.T) {
	net := buildNet(t, 64, 6, 4)
	net.Leave(1, 3, false)
	net.Leave(1, 40, false)
	set := NewSet(net, dist.NewSource(9), DefaultPeriod)
	set.TickAll() // creates every online node's estimator
	if allocs := testing.AllocsPerRun(100, set.TickAll); allocs != 0 {
		t.Fatalf("TickAll allocates %v objects per round, want 0", allocs)
	}
	if set.Len() != net.OnlineCount() {
		t.Fatalf("%d estimators for %d online nodes", set.Len(), net.OnlineCount())
	}
}

func TestAvailabilityNormalises(t *testing.T) {
	net := buildNet(t, 12, 5, 5)
	est := NewEstimator(0, net, dist.NewSource(6), 60)
	for i := 0; i < 10; i++ {
		est.Tick()
	}
	sum := 0.0
	for _, a := range est.Snapshot() {
		if a < 0 || a > 1 {
			t.Fatalf("availability out of range: %g", a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("availabilities sum to %g", sum)
	}
}

func TestDeadNeighborDecays(t *testing.T) {
	net := buildNet(t, 10, 4, 7)
	victim := net.NeighborsOf(0)[0]
	est := NewEstimator(0, net, dist.NewSource(8), 60)
	est.Tick() // everyone at 60
	net.Leave(100, victim, false)
	est.Tick()
	if got := est.SessionTime(victim); got != 60*DecayOnMiss {
		t.Fatalf("dead neighbor session %g, want %g", got, 60*DecayOnMiss)
	}
	// A live neighbor has 120; victim must rank below it.
	live := net.NeighborsOf(0)[1]
	if est.Availability(victim) >= est.Availability(live) {
		t.Fatal("dead neighbor ranks >= live one")
	}
}

func TestHigherSessionTimeHigherAvailability(t *testing.T) {
	// The paper: "a neighbor with a higher observed session time has a
	// higher availability."
	net := buildNet(t, 10, 4, 9)
	nb := net.NeighborsOf(0)
	est := NewEstimator(0, net, dist.NewSource(10), 60)
	est.Tick()
	net.Leave(50, nb[0], false)
	est.Tick() // nb[0] decays; others grow
	for _, v := range nb[1:] {
		if est.SessionTime(nb[0]) < est.SessionTime(v) &&
			est.Availability(nb[0]) >= est.Availability(v) {
			t.Fatal("availability ordering violates session-time ordering")
		}
	}
}

func TestNewNeighborGetsRandomInit(t *testing.T) {
	net := buildNet(t, 30, 5, 11)
	est := NewEstimator(0, net, dist.NewSource(12), 60)
	est.Tick()
	// Force a neighbor change: depart one neighbor and refresh.
	victim := net.NeighborsOf(0)[0]
	net.Leave(10, victim, true)
	net.RefreshNeighbors(0)
	// Find the replacement (a neighbor with no session entry yet).
	var fresh overlay.NodeID = overlay.None
	for _, v := range net.NeighborsOf(0) {
		if v != victim && est.SessionTime(v) == 0 && v != overlay.None {
			// zero could also mean never ticked; pick one not in old set
			fresh = v
		}
	}
	est.Tick()
	if fresh != overlay.None {
		got := est.SessionTime(fresh)
		// rand(0,60) only — the discovery tick must NOT also credit the
		// +60 period, or a newcomer could outrank a fully observed node.
		if got <= 0 || got >= 60 {
			t.Fatalf("fresh neighbor session %g, want in (0,60)", got)
		}
		// An incumbent observed for both ticks has 120 and must outrank it.
		for _, v := range net.NeighborsOf(0) {
			if v != fresh && est.SessionTime(v) == 120 && est.Availability(v) <= est.Availability(fresh) {
				t.Fatalf("fresh neighbor (t=%g) outranks incumbent (t=120)", got)
			}
		}
		// From the next tick on it accrues normally.
		est.Tick()
		if got2 := est.SessionTime(fresh); got2 <= 60 || got2 >= 120 {
			t.Fatalf("fresh neighbor session %g after second tick, want in (60,120)", got2)
		}
	}
	// Vanished neighbor must be forgotten.
	if est.SessionTime(victim) != 0 {
		t.Fatal("departed ex-neighbor still tracked")
	}
}

func TestAttachPausesWhileOffline(t *testing.T) {
	net := buildNet(t, 10, 4, 13)
	est := NewEstimator(0, net, dist.NewSource(14), 60)
	e := sim.NewEngine()
	est.Attach(e)
	e.RunUntil(sim.Time(180)) // probes at 60, 120, 180
	if est.Probes() != 3 {
		t.Fatalf("probes = %d", est.Probes())
	}
	net.Leave(e.Now(), 0, false)
	e.RunUntil(sim.Time(360))
	if est.Probes() != 3 {
		t.Fatalf("offline node still probing: %d", est.Probes())
	}
	net.Rejoin(e.Now(), 0)
	e.RunUntil(sim.Time(480))
	if est.Probes() != 5 {
		t.Fatalf("probes after rejoin = %d", est.Probes())
	}
}

func TestAttachStopsOnDeparture(t *testing.T) {
	net := buildNet(t, 10, 4, 15)
	est := NewEstimator(0, net, dist.NewSource(16), 60)
	e := sim.NewEngine()
	est.Attach(e)
	e.RunUntil(60)
	net.Leave(e.Now(), 0, true)
	e.RunUntil(600)
	if est.Probes() != 1 {
		t.Fatalf("departed node probed %d times", est.Probes())
	}
	if e.Pending() != 0 {
		t.Fatalf("departed estimator left %d events pending", e.Pending())
	}
}

func TestSetLazyCreation(t *testing.T) {
	net := buildNet(t, 10, 4, 17)
	set := NewSet(net, dist.NewSource(18), 60)
	a := set.For(3)
	b := set.For(3)
	if a != b {
		t.Fatal("Set.For not idempotent")
	}
	if a.Owner() != 3 {
		t.Fatalf("owner = %d", a.Owner())
	}
}

func TestSetTickAllCoversOnlineOnly(t *testing.T) {
	net := buildNet(t, 10, 4, 19)
	net.Leave(1, 4, false)
	set := NewSet(net, dist.NewSource(20), 60)
	set.TickAll()
	for _, id := range net.AllIDs() {
		want := 1
		if id == 4 {
			want = 0
		}
		if got := set.For(id).Probes(); got != want {
			t.Fatalf("node %d probes = %d, want %d", id, got, want)
		}
	}
}

func TestSetAttach(t *testing.T) {
	net := buildNet(t, 10, 4, 21)
	set := NewSet(net, dist.NewSource(22), 60)
	e := sim.NewEngine()
	cancel := set.Attach(e)
	e.RunUntil(300)
	if got := set.For(0).Probes(); got != 5 {
		t.Fatalf("probes = %d", got)
	}
	cancel()
	e.RunUntil(600)
	if got := set.For(0).Probes(); got != 5 {
		t.Fatalf("probes after cancel = %d", got)
	}
}

func TestEstimatorValidation(t *testing.T) {
	net := buildNet(t, 5, 2, 23)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero period: no panic")
			}
		}()
		NewEstimator(0, net, dist.NewSource(1), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rng: no panic")
			}
		}()
		NewEstimator(0, net, nil, 60)
	}()
}

// Property: after any sequence of ticks interleaved with neighbor churn,
// the availability snapshot sums to ~1 (or the prior) and stays in [0,1].
func TestQuickSnapshotNormalised(t *testing.T) {
	f := func(ops []bool) bool {
		rng := dist.NewSource(31)
		net := overlay.NewNetwork(4, rng.Split())
		for i := 0; i < 15; i++ {
			net.Join(0, false)
		}
		est := NewEstimator(0, net, rng.Split(), 60)
		now := sim.Time(1)
		for _, op := range ops {
			if op {
				est.Tick()
			} else {
				// Toggle a random neighbor offline/online.
				nb := net.NeighborsOf(0)
				if len(nb) > 0 {
					v := nb[rng.Intn(len(nb))]
					switch net.Node(v).State {
					case overlay.Online:
						net.Leave(now, v, false)
					case overlay.Offline:
						net.Rejoin(now, v)
					}
				}
			}
			now++
		}
		sum := 0.0
		for _, a := range est.Snapshot() {
			if a < 0 || a > 1 {
				return false
			}
			sum += a
		}
		return len(est.Snapshot()) == 0 || math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Owner returns the observing node's ID.
func (est *Estimator) Owner() overlay.NodeID { return est.owner }

// Attach schedules est.Tick every probing period on the engine, pausing
// automatically while the owner is offline (an offline peer cannot probe)
// and stopping for good when it departs. It returns a cancel function.
func (est *Estimator) Attach(e *sim.Engine) (cancel func()) {
	return e.Every(est.period, func(*sim.Engine) bool {
		switch est.net.Node(est.owner).State {
		case overlay.Departed:
			return false
		case overlay.Online:
			est.Tick()
		}
		return true
	})
}

// SessionTime returns the observed session time t_s(u) for neighbor u, or
// 0 if u is not currently tracked.
func (est *Estimator) SessionTime(u overlay.NodeID) float64 {
	if k := slices.Index(est.nbr, u); k >= 0 {
		return est.session[k]
	}
	return 0
}
