package core

import (
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

func requireSameTable(t *testing.T, step string, got, want [][]game.Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: table rows %d != %d", step, len(got), len(want))
	}
	for h := range got {
		if len(got[h]) != len(want[h]) {
			t.Fatalf("%s: row %d len %d != %d", step, h, len(got[h]), len(want[h]))
		}
		for i := range got[h] {
			if got[h][i] != want[h][i] {
				t.Fatalf("%s: table[%d][%d] = %+v, fresh solve %+v", step, h, i, got[h][i], want[h][i])
			}
		}
	}
}

// TestSPNECacheMatchesFreshSolve is the cache-equivalence property test:
// across random topologies, the cells the batch's solver hands out — from
// the memo, from base rows kept across solves — must equal a fresh solve
// at every point: after connections mutate history, after probe ticks move
// estimates, and after churn (leave / rejoin / join / neighbor repair)
// invalidates the topology. Any missed invalidation shows up as a stale
// decision differing from the oracle.
func TestSPNECacheMatchesFreshSolve(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		rng := dist.NewSource(seed ^ 0x9e3779b97f4a7c15)
		sys := testSystem(t, 24, seed, 0)
		b, err := sys.NewBatch(0, 23, Contract{Pf: 75, Pr: 150}, UtilityII)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			requireSameTable(t, step, fullTable(b), solveDense(b).table)
		}
		check("initial")
		now := sim.Time(0)
		for round := 0; round < 30; round++ {
			now += 60
			switch rng.Intn(5) {
			case 0: // take a random non-endpoint node offline
				ids := sys.Net.OnlineIDs()
				id := ids[rng.Intn(len(ids))]
				if id != b.Initiator && id != b.Responder {
					sys.Net.Leave(now, id, false)
				}
			case 1: // bring an offline node back
				for _, id := range sys.Net.AllIDs() {
					if !sys.Net.Online(id) && sys.Net.Node(id).State == overlay.Offline {
						sys.Net.Rejoin(now, id)
						break
					}
				}
			case 2: // grow the overlay
				sys.Net.Join(now, false)
			case 3: // neighbor repair + probe tick
				for _, id := range sys.Net.OnlineIDs() {
					sys.Net.RefreshNeighbors(id)
				}
				sys.Probes.TickAll()
			case 4: // history mutation via a real connection
				b.RunConnection()
			}
			check("round")
		}
	}
}

// TestSPNECacheHitReusesTable pins the memo-hit fast path: with every
// input unchanged, a repeated root must compute nothing, a larger budget
// must only add cells, and a touched overlay must solve from nothing
// again.
func TestSPNECacheHitReusesTable(t *testing.T) {
	sys := testSystem(t, 16, 5, 0)
	b, err := sys.NewBatch(0, 15, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	b.spneTable(b.Initiator, 3)
	first := sys.SolverStats()
	b.spneTable(b.Initiator, 3)
	if st := sys.SolverStats(); st.Solves != first.Solves || st.FrontierCells != first.FrontierCells || st.Incremental != first.Incremental+1 {
		t.Fatalf("unchanged inputs re-solved the root: %+v → %+v", first, st)
	}
	b.spneTable(b.Initiator, 5)
	longer := sys.SolverStats()
	if longer.Solves != first.Solves || longer.FrontierCells <= first.FrontierCells {
		t.Fatalf("a larger budget did not extend the memo in place: %+v → %+v", first, longer)
	}
	sys.Net.Touch()
	b.spneTable(b.Initiator, 5)
	if st := sys.SolverStats(); st.Solves != longer.Solves+1 || st.Fallbacks != longer.Fallbacks+1 {
		t.Fatalf("Touch did not reset the memo: %+v → %+v", longer, st)
	}
	requireSameTable(t, "after Touch", fullTable(b), solveDense(b).table)
}

// TestSPNECacheInvalidatedOnClose pins that closing a batch (dropping its
// history profiles) also drops the cached solve.
func TestSPNECacheInvalidatedOnClose(t *testing.T) {
	sys := testSystem(t, 16, 9, 0)
	b, err := sys.NewBatch(0, 15, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	b.RunConnection()
	b.spneTable(b.Initiator, 2)
	b.Close()
	if b.spneStamp.valid {
		t.Fatal("Close left the SPNE cache stamp valid")
	}
}

func newBenchSystem(tb testing.TB, n int, seed uint64) *System {
	tb.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < n; i++ {
		net.Join(0, false)
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
		tb.Fatal(err)
	}
	return sys
}

// TestSPNEMemoHitAllocsZero pins the steady-state path of a static
// overlay: asking for a solved root with every input unchanged allocates
// nothing. The stage game's Adjacency is bound once per batch; binding it
// per call cost one closure allocation each time.
func TestSPNEMemoHitAllocsZero(t *testing.T) {
	sys := newBenchSystem(t, 64, 13)
	batch, err := sys.NewBatch(0, 63, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	batch.spneTable(batch.Initiator, sys.cfg.MaxHops) // warm the memo
	if allocs := testing.AllocsPerRun(100, func() {
		batch.spneTable(batch.Initiator, sys.cfg.MaxHops)
	}); allocs != 0 {
		t.Fatalf("memo-hit spneTable allocates %.0f times, want 0", allocs)
	}
	if st := sys.SolverStats(); st.Incremental < 100 || st.Solves != 1 {
		t.Fatalf("pin did not exercise memo hits: %+v", st)
	}
}

// BenchmarkSPNESimCache measures asking for a solved root with every
// input unchanged — the steady-state path of a static overlay.
func BenchmarkSPNESimCache(b *testing.B) {
	sys := newBenchSystem(b, 64, 13)
	batch, err := sys.NewBatch(0, 63, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		b.Fatal(err)
	}
	batch.spneTable(batch.Initiator, sys.cfg.MaxHops) // warm the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.spneTable(batch.Initiator, sys.cfg.MaxHops)
	}
}

// BenchmarkSPNESolveCold measures a solve from nothing (the invalidation
// path) at the full budget, for contrast with the memo hit above.
func BenchmarkSPNESolveCold(b *testing.B) {
	sys := newBenchSystem(b, 64, 13)
	batch, err := sys.NewBatch(0, 63, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Net.Touch()
		batch.spneTable(batch.Initiator, sys.cfg.MaxHops)
	}
}

// BenchmarkConeWorld is the in-process A/B for the simulator's solver,
// as BenchmarkLiveSolve is for the live router: one op is one connection
// of sim_um2_churn's step — 2000 nodes of degree 6, generations of 16
// interleaved UM-II batches of 10 connections, each connection preceded
// by one churn event (64 nodes take turns leaving and rejoining) and
// every 8th by a probe round, each generation settled and closed. A
// change to internal/core or internal/game is measured by building this
// package's test binary at the parent commit and at the change (go test
// -c) and alternating the two.
func BenchmarkConeWorld(b *testing.B) {
	const nodes, degree, batches, conns, churnSet, tickEvery = 2000, 6, 16, 10, 64, 8
	rng := dist.NewSource(46)
	net := overlay.NewNetwork(degree, rng.Split())
	net.GrowUniform(0, nodes)
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	probes.TickAll()
	probes.TickAll()
	sys, err := NewSystem(DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		b.Fatal(err)
	}
	churn := dist.SampleWithoutReplacement(rng, nodes, churnSet)
	inChurn := make(map[int]bool, churnSet)
	for _, i := range churn {
		inChurn[i] = true
	}
	stable := func() overlay.NodeID { // endpoints never leave
		for {
			if i := rng.Intn(nodes); !inChurn[i] {
				return overlay.NodeID(i)
			}
		}
	}
	events, now := 0, sim.Time(0)
	live := make([]*Batch, batches)
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; {
		for k := range live {
			i, r := stable(), stable()
			for r == i {
				r = stable()
			}
			if live[k], err = sys.NewBatch(i, r, Contract{Pf: 75, Pr: 150}, UtilityII); err != nil {
				b.Fatal(err)
			}
		}
		for c := 0; c < conns && op < b.N; c++ {
			for _, batch := range live {
				if op == b.N {
					break
				}
				now += 60
				if id := overlay.NodeID(churn[(events/2)%churnSet]); events%2 == 0 {
					net.Leave(now, id, false)
				} else {
					net.Rejoin(now, id)
				}
				if events%tickEvery == 0 {
					probes.TickAll()
				}
				events++
				batch.RunConnection()
				op++
			}
		}
		for _, batch := range live {
			batch.Settle()
			batch.Close()
		}
	}
}
