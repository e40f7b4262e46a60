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

// solverRow is the one view the row tests check: node i's row as the
// solver reads it (game.PathGame.AppendRow, under the rule the last memo
// reset set), whether i holds a row by that rule, and q(i, R) of the
// delivery edge the rule gives it (−1 for none).
func solverRow(g *game.PathGame, i int) (succ []int32, qual []float64, holds bool, deliver float64) {
	r := &g.Rule
	holds = i != g.Responder && i < len(r.Holds) && r.Holds[i]
	deliver = -1
	if holds && r.Deliver {
		deliver = 1
	}
	succ, qual = g.AppendRow(nil, nil, i)
	return succ, qual, holds, deliver
}

// spliceRow is the reference the rule is held to: the spliced copy the
// rows were built as before the solver read base rows in place. From
// base, node i's row as the game's Adjacency returns it, it drops i, the
// initiator and every neighbour that holds no row (R included), and puts
// the delivery edge at quality 1 at R's ascending position.
func spliceRow(g *game.PathGame, i int) ([]int32, []float64) {
	r := &g.Rule
	holds := func(j int) bool { return j != g.Responder && j < len(r.Holds) && r.Holds[j] }
	if !holds(i) {
		return nil, nil
	}
	base, baseQ := g.Adjacency(i)
	resp, deliver := int32(g.Responder), r.Deliver
	var succ []int32
	var qual []float64
	for a, j := range base {
		if deliver && j >= resp {
			succ, qual = append(succ, resp), append(qual, 1)
			deliver = false
		}
		if j == int32(i) || j == int32(r.Initiator) || !holds(int(j)) {
			continue
		}
		succ, qual = append(succ, j), append(qual, baseQ[a])
	}
	if deliver {
		succ, qual = append(succ, resp), append(qual, 1)
	}
	return succ, qual
}

// requireSameRow holds the solver's view of node i's row to a reference,
// entry for entry, qualities by Float64bits.
func requireSameRow(t *testing.T, step string, i int, succ []int32, qual []float64, wantS []int32, wantQ []float64) {
	t.Helper()
	same := len(succ) == len(wantS)
	for a := 0; same && a < len(succ); a++ {
		same = succ[a] == wantS[a] && sameBits(qual[a], wantQ[a])
	}
	if !same {
		t.Fatalf("%s: node %d's row %v %v, reference %v %v", step, i, succ, qual, wantS, wantQ)
	}
}

// requireRowShape checks the row the solver reads for node i (solverRow)
// and returns it: strictly ascending — R visited once — without i itself
// or the initiator, and no longer than maxLen.
func requireRowShape(t *testing.T, step string, g *game.PathGame, i, maxLen int) (succ []int32, qual []float64, holds bool, deliver float64) {
	t.Helper()
	succ, qual, holds, deliver = solverRow(g, i)
	for a, j := range succ {
		if a > 0 && succ[a-1] >= j || j == int32(i) || j == int32(g.Rule.Initiator) || len(succ) > maxLen {
			t.Fatalf("%s: node %d's row %v: not strictly ascending, longer than %d, or holds %d itself or the initiator %d", step, i, succ, maxLen, i, g.Rule.Initiator)
		}
	}
	return succ, qual, holds, deliver
}

// requireDeliverAgrees checks the stage game's two views of the delivery
// rule against each other on every node: the rule's delivery edge exists
// exactly when the row the solver reads holds R, at a bit-equal quality.
// And it checks the contract SolveFrom's closed-form stage 2 rests on:
// every successor other than R in a row holds a row itself, with the
// delivery edge of the row's own node; a row is strictly ascending (R
// visited once) and holds neither its own node nor the initiator; a node
// that holds no row has none. It returns how many successors it checked.
func requireDeliverAgrees(t *testing.T, step string, g *game.PathGame) (successors int) {
	t.Helper()
	for i := 0; i < g.Nodes; i++ {
		succ, qual, holds, dq := requireRowShape(t, step, g, i, g.Nodes)
		if !holds && len(succ) != 0 {
			t.Fatalf("%s: node %d holds no row, yet reads %v", step, i, succ)
		}
		rq := -1.0
		for a, j := range succ {
			if j == int32(g.Responder) {
				rq = qual[a]
				continue
			}
			successors++
			if _, _, jh, jq := solverRow(g, int(j)); !jh || !sameBits(jq, dq) {
				t.Fatalf("%s: node %d's successor %d: holds a row %v, delivery %v, node's %v", step, i, j, jh, jq, dq)
			}
		}
		if (dq >= 0) != (rq >= 0) || (dq >= 0 && math.Float64bits(dq) != math.Float64bits(rq)) {
			t.Fatalf("%s: node %d: delivery edge %v, row's edge to R = %v (row %v)", step, i, dq, rq, succ)
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

// churnRounds is the churn world the row tests share: on a 300-node
// system, one UM-II batch whose R sits mid-range (so rows list
// successors on both sides of it), and 24 rounds in which nodes other
// than I leave — R every eighth round — and rejoin, probe rounds run and
// connections give holders history (σ overlays). After each round's
// connection it re-solves the batch's game from a fresh memo and calls
// check. It returns how many rounds ended with R offline.
func churnRounds(t *testing.T, seed uint64, check func(b *Batch)) (deadR int) {
	t.Helper()
	sys, _ := scaleSystem(t, 300, seed)
	b, err := sys.NewBatch(0, 150, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewSource(seed + 100)
	now := sim.Time(0)
	var down []overlay.NodeID
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
		check(b)
		if !sys.Net.Online(b.Responder) {
			deadR++
		}
	}
	if len(b.histNodes) == 0 {
		t.Fatalf("seed %d: no holder with history: the script no longer covers σ overlays", seed)
	}
	return deadR
}

// TestDeliverAgreesWithRows pins the one delivery rule the solver's row
// rule holds: through the churn world, the rule's delivery edge agrees
// with the rows the solver reads, every row successor other than R holds
// a row with the same delivery edge, and the stage-1 read equals the
// dense oracle's stage 1 on every node.
func TestDeliverAgreesWithRows(t *testing.T) {
	for _, seed := range []uint64{2, 9} {
		successors := 0
		deadR := churnRounds(t, seed, func(b *Batch) {
			successors += requireDeliverAgrees(t, "round", &b.sys.stage)
			requireStageOneMatchesOracle(t, "round", b)
		})
		if successors == 0 || deadR == 0 {
			t.Fatalf("seed %d: %d successors, %d rounds with R offline: the script no longer covers the rule", seed, successors, deadR)
		}
	}
}

// TestSolverRowsMatchSplicedRows holds the rows the solver reads in place
// to the spliced copies they replaced: through the churn world, on every
// node, the row as the solver's rule reads it equals spliceRow over the
// same Adjacency row, and the dense oracle's edges out of the node (every
// j in ascending order with stageEdgeQuality ≥ 0), entry for entry with
// Float64bits.
func TestSolverRowsMatchSplicedRows(t *testing.T) {
	for _, seed := range []uint64{2, 9, 17} {
		rows := 0
		churnRounds(t, seed, func(b *Batch) {
			g := &b.sys.stage
			for i := 0; i < g.Nodes; i++ {
				succ, qual, _, _ := solverRow(g, i)
				wantS, wantQ := spliceRow(g, i)
				requireSameRow(t, "spliced", i, succ, qual, wantS, wantQ)
				wantS, wantQ = wantS[:0], wantQ[:0]
				for j := 0; j < g.Nodes; j++ {
					if q := b.stageEdgeQuality(overlay.NodeID(i), overlay.NodeID(j)); q >= 0 {
						wantS, wantQ = append(wantS, int32(j)), append(wantQ, q)
					}
				}
				requireSameRow(t, "dense", i, succ, qual, wantS, wantQ)
				if len(succ) > 0 {
					rows++
				}
			}
		})
		if rows == 0 {
			t.Fatalf("seed %d: no row compared", seed)
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
