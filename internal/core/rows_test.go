package core

import (
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

// requireDeliverAgrees checks the stage game's two views of the delivery
// rule against each other on every node: Deliver(i) ≥ 0 exactly when the
// row Adjacency(i) builds holds R, at a bit-equal quality. And it checks
// the contract SolveFrom's closed-form stage 2 rests on: every successor
// other than R in a built row holds a row itself, with the Deliver of the
// row's own node. It returns how many successors it checked.
func requireDeliverAgrees(t *testing.T, step string, sys *System, r overlay.NodeID) (successors int) {
	t.Helper()
	for i := 0; i < sys.Net.Len(); i++ {
		dq := sys.stage.Deliver(i)
		rq := -1.0
		succ, qual := sys.stage.Adjacency(i)
		for a, j := range succ {
			if j == int32(r) {
				rq = qual[a]
				continue
			}
			successors++
			if !sys.rows.Holds(int(j)) || !sameBits(sys.stage.Deliver(int(j)), dq) {
				t.Fatalf("%s: node %d's successor %d: holds a row %v, Deliver %v, node's %v", step, i, j, sys.rows.Holds(int(j)), sys.stage.Deliver(int(j)), dq)
			}
		}
		if (dq >= 0) != (rq >= 0) || (dq >= 0 && math.Float64bits(dq) != math.Float64bits(rq)) {
			t.Fatalf("%s: node %d: Deliver = %v, row's edge to R = %v (row %v)", step, i, dq, rq, succ)
		}
	}
	return successors
}

// requireStageOneMatchesOracle holds the stage-1 read (game.PathGame.Cell,
// answered from Deliver alone) to stage 1 of the dense oracle for b's
// game, on every node.
func requireStageOneMatchesOracle(t *testing.T, step string, b *Batch) {
	t.Helper()
	sys := b.sys
	oracle := game.PathGame{
		Nodes: sys.Net.Len(), Responder: int(b.Responder),
		EdgeQuality: func(i, j int) float64 {
			return b.stageEdgeQuality(overlay.NodeID(i), overlay.NodeID(j))
		},
		Pf: b.Contract.Pf, Pr: b.Contract.Pr, Cost: sys.cfg.Cost, MaxHops: 1,
	}
	want := oracle.Solve()[1]
	for i := range want {
		if got, ok := sys.stage.Cell(&sys.memo, 1, i); !ok || !sameCell(got, want[i]) {
			t.Fatalf("%s: stage-1 read of node %d = %+v (%v), dense oracle %+v", step, i, got, ok, want[i])
		}
	}
}

// TestDeliverAgreesWithRows pins the one delivery rule core.Rows holds:
// through churn that takes forwarders and R offline, probe rounds and
// connections that give holders history (rescored rows), the closed-form
// Deliver agrees with the built rows, every row successor other than R
// holds a row with the same Deliver, and the stage-1 read equals the
// dense oracle's stage 1 on every node.
func TestDeliverAgreesWithRows(t *testing.T) {
	for _, seed := range []uint64{2, 9} {
		sys, b := scaleSystem(t, 300, seed)
		rng := dist.NewSource(seed + 100)
		now := sim.Time(0)
		var down []overlay.NodeID
		successors, deadR := 0, 0
		for round := 0; round < 24; round++ {
			now += 60
			switch round % 4 {
			case 0, 1: // a node other than I leaves, R every fourth time
				id := overlay.NodeID(1 + rng.Intn(sys.Net.Len()-1))
				if round%8 == 0 {
					id = b.Responder
				}
				if sys.Net.Online(id) {
					sys.Net.Leave(now, id, false)
					down = append(down, id)
				}
			case 2: // the earliest departure rejoins, then a probe round
				if len(down) > 0 {
					sys.Net.Rejoin(now, down[0])
					down = down[1:]
				}
				sys.Probes.TickAll()
			}
			b.RunConnection()
			sys.Net.Touch() // a fresh memo and rows for this batch
			b.spneTable(b.Initiator, 2)
			successors += requireDeliverAgrees(t, "round", sys, b.Responder)
			requireStageOneMatchesOracle(t, "round", b)
			if !sys.Net.Online(b.Responder) {
				deadR++
			}
		}
		if len(b.histNodes) == 0 || successors == 0 || deadR == 0 {
			t.Fatalf("seed %d: %d holders with history, %d successors, %d rounds with R offline: the script no longer covers the rule", seed, len(b.histNodes), successors, deadR)
		}
	}
}

// TestConeRowsBuilt pins how many rows a cone solve builds: none for a
// budget of 1 (stage 1 is filled from Deliver), only the root's for a
// budget of 2, and on a world the size of the benchmark's sim_um2_churn —
// 2000 nodes of degree 6, generations of 16 interleaved UM-II batches
// under churn and probe rounds — exactly one per distinct node other than R solved at
// stage 2 or above, since the memo was last reset.
func TestConeRowsBuilt(t *testing.T) {
	sys, b := scaleSystem(t, 500, 3)
	fills := 0
	b.fill = func(i int) { fills++; b.row(i) }
	for _, c := range []struct{ budget, rows int }{{1, 0}, {2, 1}} {
		sys.Net.Touch()
		fills = 0
		b.spneTable(b.Initiator, c.budget)
		if fills != c.rows {
			t.Fatalf("budget-%d solve built %d rows, want %d", c.budget, fills, c.rows)
		}
	}

	const nodes, batches, conns, generations = 2000, 16, 10, 4
	rng := dist.NewSource(38)
	net := overlay.NewNetwork(6, rng.Split())
	net.GrowUniform(0, nodes)
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	probes.TickAll()
	probes.TickAll()
	sys, err := NewSystem(DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	churn := dist.SampleWithoutReplacement(rng, nodes, 64)
	inChurn := make(map[int]bool)
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
	fills = 0
	epochFills, events, solves := 0, 0, 0
	now := sim.Time(0)
	for gen := 0; gen < generations; gen++ {
		live := make([]*Batch, batches)
		for k := range live {
			i, r := stable(), stable()
			for r == i {
				r = stable()
			}
			b, err := sys.NewBatch(i, r, Contract{Pf: 75, Pr: 150}, UtilityII)
			if err != nil {
				t.Fatal(err)
			}
			b.fill = func(i int) { fills++; b.row(i) }
			live[k] = b
		}
		for c := 0; c < conns; c++ {
			for _, b := range live {
				now += 60
				if id := overlay.NodeID(churn[(events/2)%len(churn)]); events%2 == 0 {
					net.Leave(now, id, false)
				} else {
					net.Rejoin(now, id)
				}
				if events%8 == 0 {
					probes.TickAll()
				}
				events++
				before, f0 := sys.SolverStats().Solves, fills
				b.RunConnection()
				if sys.SolverStats().Solves != before {
					epochFills, solves = 0, solves+1
				}
				epochFills += fills - f0
				distinct := 0
				for i := 0; i < nodes; i++ {
					for h := 2; h <= sys.cfg.MaxHops; h++ {
						if i != int(b.Responder) && sys.memo.Known(h, i) {
							distinct++
							break
						}
					}
				}
				if epochFills != distinct {
					t.Fatalf("conn %d of batch %d: %d rows built since the memo reset, %d distinct nodes other than R at stages ≥ 2", c+1, b.ID, epochFills, distinct)
				}
			}
		}
		for _, b := range live {
			b.Settle()
			b.Close()
		}
	}
	t.Logf("rows built per solve: %.1f over %d solves", float64(fills)/float64(solves), solves)
}
