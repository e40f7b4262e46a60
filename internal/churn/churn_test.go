package churn

import (
	"math"
	"sort"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
)

func setup(t *testing.T, cfg Config, seed uint64) (*sim.Engine, *overlay.Network, *Driver) {
	t.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	drv := NewDriver(cfg, net, rng.Split())
	e := sim.NewEngine()
	return e, net, drv
}

// departed counts the nodes the overlay shows permanently gone.
func departed(net *overlay.Network) int {
	n := 0
	for _, id := range net.AllIDs() {
		if net.Node(id).State == overlay.Departed {
			n++
		}
	}
	return n
}

func TestStaticSeedsExactlyN(t *testing.T) {
	cfg := Config{N: 40, Static: true}
	e, net, drv := setup(t, cfg, 1)
	drv.Start(e)
	e.RunUntil(sim.Time(10 * 3600))
	if net.Len() != 40 {
		t.Fatalf("Len = %d", net.Len())
	}
	if net.OnlineCount() != 40 {
		t.Fatalf("Online = %d", net.OnlineCount())
	}
	if n := departed(net); n != 0 {
		t.Fatalf("static run had %d departures", n)
	}
}

func TestMaliciousFractionExact(t *testing.T) {
	cfg := Config{N: 40, MaliciousFraction: 0.5, Static: true}
	e, net, drv := setup(t, cfg, 2)
	drv.Start(e)
	count := 0
	for _, id := range net.AllIDs() {
		if net.Node(id).Malicious {
			count++
		}
	}
	if count != 20 {
		t.Fatalf("malicious = %d, want 20", count)
	}
	_ = e
}

func TestMaliciousFractionRounds(t *testing.T) {
	cfg := Config{N: 10, MaliciousFraction: 0.25, Static: true}
	e, net, drv := setup(t, cfg, 3)
	drv.Start(e)
	_ = e
	count := 0
	for _, id := range net.AllIDs() {
		if net.Node(id).Malicious {
			count++
		}
	}
	if count != 3 { // round(2.5) = 3 with +0.5 rounding
		t.Fatalf("malicious = %d, want 3", count)
	}
}

func TestChurnProducesLeavesAndRejoins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0
	e, net, drv := setup(t, cfg, 4)
	drv.Start(e)
	e.RunUntil(sim.Time(24 * 3600))
	// After a day with median 60-minute sessions and 10% departure odds,
	// there must be substantial state diversity.
	states := map[overlay.State]int{}
	for _, id := range net.AllIDs() {
		states[net.Node(id).State]++
	}
	if states[overlay.Departed] == 0 {
		t.Fatal("no departures after 24h")
	}
}

func TestArrivalsReplaceDepartures(t *testing.T) {
	cfg := DefaultConfig()
	e, net, drv := setup(t, cfg, 5)
	drv.Start(e)
	e.RunUntil(sim.Time(24 * 3600))
	if net.Len() <= cfg.N {
		t.Fatalf("no arrivals: Len=%d", net.Len())
	}
}

func TestSessionTimesFollowConfiguredMedian(t *testing.T) {
	// With departures disabled and long horizon, observed availability
	// should hover near median-session / (median-session + mean-off) — a
	// loose sanity band, not an exact law (Pareto means are heavy-tailed).
	// A node's completed sessions over its lifetime so far read it low by
	// at most its current session, one of about a hundred.
	cfg := Config{
		N:           40,
		Session:     dist.ParetoFromMedian(sim.Minutes(60).Seconds(), 1.5),
		MeanOffTime: sim.Minutes(60).Seconds(),
		DepartProb:  0,
	}
	e, net, drv := setup(t, cfg, 6)
	drv.Start(e)
	e.RunUntil(sim.Time(200 * 3600))
	sum := 0.0
	for _, id := range net.AllIDs() {
		node := net.Node(id)
		sum += float64(node.TotalSession) / float64(e.Now()-node.FirstJoin)
	}
	avg := sum / float64(net.Len())
	if avg < 0.4 || avg > 0.95 {
		t.Fatalf("average availability %g outside sanity band", avg)
	}
}

func TestDeterministicChurn(t *testing.T) {
	run := func() (int, int, int) {
		cfg := DefaultConfig()
		rng := dist.NewSource(77)
		net := overlay.NewNetwork(5, rng.Split())
		drv := NewDriver(cfg, net, rng.Split())
		e := sim.NewEngine()
		drv.Start(e)
		e.RunUntil(sim.Time(12 * 3600))
		return net.Len(), net.OnlineCount(), departed(net)
	}
	l1, o1, d1 := run()
	l2, o2, d2 := run()
	if l1 != l2 || o1 != o2 || d1 != d2 {
		t.Fatalf("runs differ: (%d,%d,%d) vs (%d,%d,%d)", l1, o1, d1, l2, o2, d2)
	}
}

func TestNewDriverValidation(t *testing.T) {
	rng := dist.NewSource(1)
	net := overlay.NewNetwork(5, rng.Split())
	cases := []Config{
		{N: 0, Static: true},
		{N: 10, MaliciousFraction: -0.1, Static: true},
		{N: 10, MaliciousFraction: 1.5, Static: true},
		{N: 10}, // non-static without session distribution
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			NewDriver(cfg, net, rng)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rng: no panic")
			}
		}()
		NewDriver(Config{N: 1, Static: true}, net, nil)
	}()
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.N != 40 {
		t.Fatalf("N = %d", cfg.N)
	}
	if math.Abs(paretoMedian(cfg.Session)-3600) > 1e-6 {
		t.Fatalf("session median = %g, want 3600s", paretoMedian(cfg.Session))
	}
}

func TestDepartProbOneEmptiesNetwork(t *testing.T) {
	cfg := Config{
		N:          20,
		Session:    dist.Pareto{Xm: 10, Alpha: 3},
		DepartProb: 1,
	}
	e, net, drv := setup(t, cfg, 8)
	drv.Start(e)
	e.Run()
	if net.OnlineCount() != 0 {
		t.Fatalf("online after full departure: %d", net.OnlineCount())
	}
	if n := departed(net); n != 20 {
		t.Fatalf("departures = %d", n)
	}
}

// observeSessions runs the driver to the horizon and returns every completed
// session duration, in event order, measured purely through the overlay's
// churn observer and the engine clock — the same signals the probe layer's
// availability estimator consumes.
func observeSessions(t *testing.T, cfg Config, seed uint64, horizon sim.Time) []float64 {
	t.Helper()
	e, net, drv := setup(t, cfg, seed)
	start := make(map[overlay.NodeID]sim.Time)
	var durations []float64
	net.OnChurn(func(id overlay.NodeID, s overlay.State) {
		switch s {
		case overlay.Online:
			start[id] = e.Now()
		case overlay.Offline, overlay.Departed:
			if began, ok := start[id]; ok {
				durations = append(durations, float64(e.Now()-began))
				delete(start, id)
			}
		}
	})
	drv.Start(e)
	e.RunUntil(horizon)
	return durations
}

// TestSessionDurationsConvergeToMedian is the property test for the churn
// process: session times observed from the outside (Online→Offline
// transitions under the harness clock) must have an empirical median that
// converges to the configured Pareto median, and the whole observation
// sequence must be a pure function of the seed.
func TestSessionDurationsConvergeToMedian(t *testing.T) {
	cfg := Config{
		N:           100,
		Session:     dist.ParetoFromMedian(120, 1.5),
		MeanOffTime: 30,
		// DepartProb 0: every node cycles sessions for the whole run, so the
		// sample count grows with the horizon instead of the population.
	}
	horizon := sim.Time(4 * 3600)
	durations := observeSessions(t, cfg, 99, horizon)
	if len(durations) < 1000 {
		t.Fatalf("only %d completed sessions; the churn process barely ran", len(durations))
	}
	sorted := append([]float64(nil), durations...)
	sort.Float64s(sorted)
	got := sorted[len(sorted)/2]
	want := paretoMedian(cfg.Session)
	if rel := math.Abs(got-want) / want; rel > 0.10 {
		t.Fatalf("empirical session median %.1fs vs configured %.1fs (%.1f%% off, n=%d)",
			got, want, 100*rel, len(durations))
	}
	// Every observed duration respects the Pareto lower bound.
	if sorted[0] < cfg.Session.Xm-1e-9 {
		t.Fatalf("session of %.3fs below the Pareto minimum %.3fs", sorted[0], cfg.Session.Xm)
	}

	// Same seed, same horizon: the observation sequence replays exactly.
	again := observeSessions(t, cfg, 99, horizon)
	if len(again) != len(durations) {
		t.Fatalf("replay produced %d sessions, first run %d", len(again), len(durations))
	}
	for i := range durations {
		if durations[i] != again[i] {
			t.Fatalf("replay diverged at session %d: %g vs %g", i, durations[i], again[i])
		}
	}
	// A different seed must not.
	other := observeSessions(t, cfg, 100, horizon)
	if len(other) == len(durations) {
		same := true
		for i := range durations {
			if durations[i] != other[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical session sequences")
		}
	}
}

// paretoMedian is the median of p, x_m·2^(1/α).
func paretoMedian(p dist.Pareto) float64 { return p.Xm * math.Pow(2, 1/p.Alpha) }
