package transport

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
)

// liveEdgeQuality is the dense stage game the Model-II router solved
// before it built sparse rows, kept as the oracle its rows are pinned
// against: q(i, j) asked pair by pair over the raw topology snapshot —
// delivery edges have quality 1; overlay edges score w_s·σ + w_a·α;
// everything else is absent.
func (r *UtilityIIRouter) liveEdgeQuality(topo Topology, i, j, initiator, responder overlay.NodeID, batch, conn int) float64 {
	if i == j || i == responder {
		return -1
	}
	if _, ok := topo[i]; !ok {
		return -1
	}
	r.mu.Lock()
	iDead, jDead := !r.up[i], !r.up[j]
	r.mu.Unlock()
	if iDead || jDead {
		return -1
	}
	if j == responder {
		return 1
	}
	if j == initiator {
		return -1
	}
	found := false
	for _, v := range topo[i] {
		if v == j {
			found = true
			break
		}
	}
	if !found {
		return -1
	}
	r.mu.Lock()
	sigma := r.batches[batch].Selectivity(i, j, conn)
	r.mu.Unlock()
	return r.w.Edge(sigma, r.avail[j])
}

// denseTable solves the oracle game with the dense full-sweep solver.
func (r *UtilityIIRouter) denseTable(topo Topology, initiator, responder overlay.NodeID, batch, conn, budget int) [][]game.Decision {
	g := &game.PathGame{
		Nodes:     len(r.nbrs),
		Responder: int(responder),
		EdgeQuality: func(i, j int) float64 {
			return r.liveEdgeQuality(topo, overlay.NodeID(i), overlay.NodeID(j), initiator, responder, batch, conn)
		},
		Pf:      r.rule.Contract.Pf,
		Pr:      r.rule.Contract.Pr,
		MaxHops: budget,
	}
	return g.Solve()
}

// solveConn solves connection conn of batch from start with the given
// budget as a miss does, into the router's kept solve.
func (r *UtilityIIRouter) solveConn(start, initiator, responder overlay.NodeID, batch, conn, budget int) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.solve(start, initiator, responder, batch, conn, budget)
}

// requireSolvedCells compares every cell the router's last solve holds a
// value for, read as a prescription is read (game.PathGame.Cell), with
// the oracle's, bit for bit.
func requireSolvedCells(t *testing.T, r *UtilityIIRouter, want [][]game.Decision) {
	t.Helper()
	for h := range want {
		for i, w := range want[h] {
			g, ok := r.game.Cell(&r.memo, h, i)
			if !ok {
				continue
			}
			if g.Node != w.Node || g.Next != w.Next ||
				math.Float64bits(g.Utility) != math.Float64bits(w.Utility) ||
				math.Float64bits(g.Quality) != math.Float64bits(w.Quality) {
				t.Fatalf("table[%d][%d] = %+v, want %+v", h, i, g, w)
			}
		}
	}
}

// awkwardWorld draws a topology with everything the rows have to get right
// beyond the tidy snapshots SnapshotTopology produces: repeated and self
// entries in neighbor lists, ids that are listed as neighbors but are not
// keys (one inside the key range, two past it), a key with no neighbors,
// and availabilities from a four-value set so qualities tie often and the
// lowest-id tie-break decides — 0 among them, because a zero-quality edge
// into a neighbor that delivers ties with delivering directly, which is
// what makes the delivery edge's position in its row matter.
func awkwardWorld(seed uint64) (Topology, map[overlay.NodeID]float64, int) {
	rng := dist.NewSource(seed)
	n := 12 + rng.Intn(14)
	topo := buildTopo(n, 3+rng.Intn(3), seed+1000)
	ids := n + 2
	for i := 0; i < n; i++ {
		id := overlay.NodeID(i)
		switch rng.Intn(4) {
		case 0:
			topo[id] = append(topo[id], topo[id][0]) // repeated entry
		case 1:
			topo[id] = append(topo[id], id) // self entry
		case 2:
			topo[id] = append(topo[id], overlay.NodeID(n+rng.Intn(2))) // keyless id
		}
	}
	delete(topo, overlay.NodeID(1+rng.Intn(n-2))) // listed by others, no row of its own
	topo[overlay.NodeID(1+rng.Intn(n-2))] = []overlay.NodeID{}
	avail := make(map[overlay.NodeID]float64, ids)
	for i := 0; i < ids; i++ {
		avail[overlay.NodeID(i)] = 0.25 * float64(rng.Intn(4))
	}
	return topo, avail, ids
}

// TestLiveSparseMatchesDense pins the sparse rows and the cone solve
// against the retained dense oracle: every cell the solve from (I, budget)
// computed, bit for bit, for budgets 1..5, the root always among them —
// with per-batch history (k > 1), dead forwarders, a dead responder, I
// adjacent to R, R inside and outside neighbor lists, keyless ids and
// repeated entries all in play.
func TestLiveSparseMatchesDense(t *testing.T) {
	var adjacentIR, rListed, rUnlisted, deadR, withHistory int
	for seed := uint64(1); seed <= 12; seed++ {
		topo, avail, ids := awkwardWorld(seed)
		r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
		if len(r.nbrs) != ids {
			t.Fatalf("seed %d: vertex space %d, want %d", seed, len(r.nbrs), ids)
		}
		rng := dist.NewSource(seed + 2000)
		// Batch 1 has history from several connections, some edges shared;
		// batch 2 has one connection's worth; batch 3 has none.
		for conn := 1; conn <= 6; conn++ {
			for e := 0; e < 4; e++ {
				from := overlay.NodeID(rng.Intn(ids))
				if nbs := topo[from]; len(nbs) > 0 {
					r.record(1, conn, from, nbs[rng.Intn(len(nbs))])
				}
			}
		}
		r.record(2, 1, 0, topo[0][0])
		dead := []overlay.NodeID{overlay.NodeID(rng.Intn(ids)), overlay.NodeID(rng.Intn(ids))}
		for _, id := range dead {
			r.MarkDead(id)
		}
		for pair := 0; pair < 12; pair++ {
			initiator := overlay.NodeID(rng.Intn(ids))
			responder := overlay.NodeID(rng.Intn(ids))
			switch pair {
			case 0: // I adjacent to R
				initiator = 0
				responder = topo[0][0]
			case 1: // dead responder: no delivery edge anywhere
				responder = dead[0]
			}
			if !r.up[responder] {
				deadR++
			}
			for _, v := range topo[initiator] {
				if v == responder {
					adjacentIR++
				}
			}
			for id, nbs := range topo {
				listed := false
				for _, v := range nbs {
					listed = listed || v == responder
				}
				if id != responder && listed {
					rListed++
				} else if id != responder {
					rUnlisted++
				}
			}
			for batch := 1; batch <= 3; batch++ {
				if r.batches[batch] != nil {
					withHistory++
				}
				for budget := 1; budget <= 5; budget++ {
					// The connection after batch 1's six, so σ > 0 where
					// the history names an edge.
					const conn = 7
					r.solveConn(initiator, initiator, responder, batch, conn, budget)
					if !r.memo.Known(budget, int(initiator)) {
						t.Fatalf("seed %d: root (%d, %d) not solved", seed, initiator, budget)
					}
					requireSolvedCells(t, r, r.denseTable(topo, initiator, responder, batch, conn, budget))
					for i := range r.nbrs {
						succ, _ := r.game.Adjacency(i)
						for a := 1; a < len(succ); a++ {
							if succ[a-1] >= succ[a] {
								t.Fatalf("seed %d: row %d not strictly ascending: %v", seed, i, succ)
							}
						}
					}
				}
			}
		}
	}
	for name, n := range map[string]int{
		"I adjacent to R": adjacentIR, "R inside a neighbor list": rListed, "R outside a neighbor list": rUnlisted,
		"dead responder": deadR, "batch with history": withHistory,
	} {
		if n == 0 {
			t.Errorf("no case covered %q", name)
		}
	}
}

// solverRow is the one view the live row tests check: node i's row as the
// solver reads it (game.PathGame.AppendRow, under the rule the last solve
// set), whether i holds a row by that rule, and q(i, R) of the delivery
// edge the rule gives it (−1 for none).
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
// rows were built as before the solver read base rows in place (core's
// row tests keep the same one). From node i's row as the game's Adjacency
// returns it, it drops i, the initiator and every neighbor that holds no
// row (R included), and puts the delivery edge at quality 1 at R's
// ascending position.
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

// TestSolverRowsMatchSplicedRows holds the rows the live solver reads in
// place to the spliced copies they replaced: over awkward worlds with
// history (σ overlays), dead forwarders, R dead and alive and several
// initiators, on every node, the row as the solver's rule reads it equals
// spliceRow over the same Adjacency row, entry for entry with
// Float64bits.
func TestSolverRowsMatchSplicedRows(t *testing.T) {
	rows, overlays := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		topo, avail, ids := awkwardWorld(seed)
		r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
		rng := dist.NewSource(seed + 5000)
		for conn := 1; conn <= 3; conn++ {
			walk(r, 0, overlay.NodeID(ids-3), 1, conn, 4)
		}
		r.MarkDead(overlay.NodeID(rng.Intn(ids)))
		for pair := 0; pair < 6; pair++ {
			initiator, responder := overlay.NodeID(rng.Intn(ids)), overlay.NodeID(rng.Intn(ids))
			if pair == 1 {
				r.MarkDead(responder)
			}
			r.solveConn(initiator, initiator, responder, 1, 4, 3)
			for i := range r.nbrs {
				succ, qual, _, _ := solverRow(&r.game, i)
				wantS, wantQ := spliceRow(&r.game, i)
				same := len(succ) == len(wantS)
				for a := 0; same && a < len(succ); a++ {
					same = succ[a] == wantS[a] && math.Float64bits(qual[a]) == math.Float64bits(wantQ[a])
				}
				if !same {
					t.Fatalf("seed %d pair %d: node %d's row %v %v, spliced %v %v", seed, pair, i, succ, qual, wantS, wantQ)
				}
				if len(succ) > 0 {
					rows++
				}
				if r.holder[i] && len(succ) > 0 {
					overlays++
				}
			}
			r.MarkLive(responder)
		}
	}
	if rows == 0 || overlays == 0 {
		t.Fatalf("%d rows, %d of them σ overlays: the worlds no longer cover the rule", rows, overlays)
	}
}

// TestDeliverAgreesWithRows pins the one delivery rule the solver's row
// rule holds for the live router: with R marked dead and then alive
// again, over worlds with keyless ids, dead forwarders and history
// (σ overlays), the rule gives node i a delivery edge exactly when the row
// the solver reads holds R, at a bit-equal quality — and no node delivers
// to a dead R. It also pins the contract SolveFrom's closed-form stage 2
// rests on: every row is strictly ascending (R visited once) without its
// own node or the initiator, and every successor other than R holds a
// row, with the delivery edge of the row's own node — a dead holder and a
// neighbor that is no topology key are dropped from every row — and the
// stage-1 read equals the dense oracle's stage 1 on every node.
func TestDeliverAgreesWithRows(t *testing.T) {
	var deadDropped, keylessDropped int
	for seed := uint64(1); seed <= 8; seed++ {
		topo, avail, ids := awkwardWorld(seed)
		r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
		rng := dist.NewSource(seed + 4000)
		for conn := 1; conn <= 3; conn++ {
			walk(r, 0, overlay.NodeID(ids-3), 1, conn, 4) // history: rescored rows
		}
		r.MarkDead(overlay.NodeID(rng.Intn(ids)))
		responder := topo[0][0]
		for _, alive := range []bool{false, true} {
			if alive {
				r.MarkLive(responder)
			} else {
				r.MarkDead(responder)
			}
			r.solveConn(0, 0, responder, 1, 4, 2)
			delivering := 0
			for i := range r.nbrs {
				succ, qual, _, dq := solverRow(&r.game, i)
				rq := -1.0
				for a, j := range succ {
					if a > 0 && succ[a-1] >= j || j == int32(i) || j == 0 {
						t.Fatalf("seed %d, R alive %v: node %d's row %v: not strictly ascending, or holds %d itself or the initiator 0", seed, alive, i, succ, i)
					}
					if j == int32(responder) {
						rq = qual[a]
						continue
					}
					if _, _, jh, jq := solverRow(&r.game, int(j)); !jh || math.Float64bits(jq) != math.Float64bits(dq) {
						t.Fatalf("seed %d, R alive %v: node %d's successor %d: holds a row %v, delivery %v, node's %v", seed, alive, i, j, jh, jq, dq)
					}
				}
				if (dq >= 0) != (rq >= 0) || (dq >= 0 && math.Float64bits(dq) != math.Float64bits(rq)) {
					t.Fatalf("seed %d, R alive %v: node %d: delivery edge %v, row's edge to R = %v (row %v)", seed, alive, i, dq, rq, succ)
				}
				if dq >= 0 {
					delivering++
				}
				for _, j := range r.nbrs[i] {
					if len(succ) == 0 || j == int32(responder) || j == int32(i) || j == 0 {
						continue // no row, or not a neighbor the row could keep
					}
					if !r.up[j] {
						deadDropped++
					} else if r.nbrs[j] == nil {
						keylessDropped++
					}
				}
			}
			if (delivering > 0) != alive {
				t.Fatalf("seed %d, R alive %v: %d nodes deliver", seed, alive, delivering)
			}
			want := r.denseTable(topo, 0, responder, 1, 4, 1)[1]
			for i := range want {
				if got, ok := r.game.Cell(&r.memo, 1, i); !ok || got != want[i] {
					t.Fatalf("seed %d, R alive %v: stage-1 read of node %d = %+v (%v), dense oracle %+v", seed, alive, i, got, ok, want[i])
				}
			}
		}
	}
	if deadDropped == 0 || keylessDropped == 0 {
		t.Fatalf("%d dead and %d keyless neighbors met a row: the worlds no longer cover the contract", deadDropped, keylessDropped)
	}
}

// TestConeClosedUnderDeviation plays connections whose holders deviate at
// will — each hop goes to the prescription, to the Model-I fallback's
// choice or to a uniformly random candidate of the holder — and checks
// that the cone solved at the connection's first read holds every cell
// the walk reads: after the first, no read finds a cell the kept solve
// holds no value for (Cell's ok flag), every prescription equals the full
// table's (the dense oracle as of connection start), and each connection
// costs exactly one miss. One batch per world starts at a
// node the router believes dead.
func TestConeClosedUnderDeviation(t *testing.T) {
	var reads, deviations int
	for seed := uint64(1); seed <= 12; seed++ {
		topo, avail, ids := awkwardWorld(seed)
		r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
		r.Instrument(telemetry.NewRegistry())
		rng := dist.NewSource(seed + 3000)
		corpse := overlay.NodeID(rng.Intn(ids))
		r.MarkDead(corpse)
		for batch := 1; batch <= 4; batch++ {
			initiator := overlay.NodeID(rng.Intn(ids))
			if batch == 1 {
				// An initiator believed dead has no row, but its Model-I
				// fallback still forwards.
				initiator = corpse
			}
			responder := overlay.NodeID(rng.Intn(ids - 1))
			if responder >= initiator {
				responder++
			}
			for conn := 1; conn <= 6; conn++ {
				budget := 1 + rng.Intn(6)
				want := r.denseTable(topo, initiator, responder, batch, conn, budget)
				_, m0 := cacheCounts(r)
				self, pred := initiator, overlay.None
				for remaining := budget; remaining > 0; remaining-- {
					if _, ok := r.kept(self, responder, batch, conn, remaining); remaining < budget && !ok {
						t.Fatalf("seed %d batch %d conn %d: cell (%d, %d) is outside the cone", seed, batch, conn, remaining, self)
					}
					got := r.prescribed(self, initiator, responder, batch, conn, remaining)
					reads++
					if int(got) != want[remaining][self].Next {
						t.Fatalf("seed %d batch %d conn %d: prescription at (%d, %d) = %d, full table says %d",
							seed, batch, conn, remaining, self, got, want[remaining][self].Next)
					}
					var next overlay.NodeID
					var deliver bool
					switch rng.Intn(3) {
					case 0: // play the prescription, as NextHop does
						next, deliver = r.NextHop(self, pred, initiator, responder, batch, conn, remaining)
					case 1: // the Model-I fallback
						next, deliver = r.UtilityRouter.NextHop(self, pred, initiator, responder, batch, conn, remaining)
					default: // a holder that routes at random
						cands := core.Candidates(nil, core.Hop{Cur: self, Pred: pred, Initiator: initiator, Responder: responder}, topo[self], r.up)
						if deliver = len(cands) == 0; !deliver {
							next = cands[rng.Intn(len(cands))]
							r.record(batch, conn, self, next)
						}
					}
					if deliver {
						break
					}
					if next != got {
						deviations++
					}
					self, pred = next, self
				}
				if _, m1 := cacheCounts(r); m1-m0 != 1 {
					t.Fatalf("seed %d batch %d conn %d: %d misses, want 1", seed, batch, conn, m1-m0)
				}
			}
		}
	}
	if deviations < reads/4 {
		t.Fatalf("only %d of %d hops left the prescribed play", deviations, reads)
	}
}

// lockstepWalk plays one connection on two routers at once, hop by hop
// as the transport does, and fails unless both choose every hop alike,
// so that their paths match, and solve on the same hops; after each hop
// that solved it calls check. Before every call that solves on warm,
// cold forgets its kept cone, so each of its solves is a Reset and
// SolveFrom. between, when set, runs before each hop with the budget
// left.
func lockstepWalk(t *testing.T, warm, cold *UtilityIIRouter, initiator, responder overlay.NodeID, batch, conn, budget int, between func(remaining int), check func()) {
	t.Helper()
	self, pred := initiator, overlay.None
	for remaining := budget; remaining > 0; remaining-- {
		if between != nil {
			between(remaining)
		}
		_, m0 := cacheCounts(warm)
		_, c0 := cacheCounts(cold)
		if _, hit := warm.kept(self, responder, batch, conn, remaining); !hit {
			forgetCone(cold)
		}
		next, deliver := warm.NextHop(self, pred, initiator, responder, batch, conn, remaining)
		cnext, cdeliver := cold.NextHop(self, pred, initiator, responder, batch, conn, remaining)
		if next != cnext || deliver != cdeliver {
			t.Fatalf("batch %d conn %d at (%d, %d): refreshing router chose %d (deliver %v), cold %d (deliver %v)",
				batch, conn, remaining, self, next, deliver, cnext, cdeliver)
		}
		_, m1 := cacheCounts(warm)
		if _, c1 := cacheCounts(cold); m1-m0 != c1-c0 {
			t.Fatalf("batch %d conn %d at (%d, %d): refreshing router missed %d times, cold %d", batch, conn, remaining, self, m1-m0, c1-c0)
		}
		if m1 > m0 {
			check()
		}
		if deliver {
			return
		}
		self, pred = next, self
	}
}

// forgetCone drops r's kept cone, so that its next solve is cold.
func forgetCone(r *UtilityIIRouter) {
	r.cacheMu.Lock()
	r.coneKept = false
	r.cacheMu.Unlock()
}

// requireSameCone compares the cones two routers' last solves left, cell
// by cell (PathGame.Cell, stages 2 … the memo's depth): the same cells
// known, each with the same successor and Float64bits-equal utility and
// quality. It returns how many cells it compared.
func requireSameCone(t *testing.T, label string, warm, cold *UtilityIIRouter) (cells int) {
	t.Helper()
	if warm.memoHops != cold.memoHops {
		t.Fatalf("%s: memo depths %d and %d", label, warm.memoHops, cold.memoHops)
	}
	for h := 2; h <= warm.memoHops; h++ {
		for i := range warm.nbrs {
			a, aok := warm.game.Cell(&warm.memo, h, i)
			b, bok := cold.game.Cell(&cold.memo, h, i)
			if aok != bok || aok && (a.Next != b.Next ||
				math.Float64bits(a.Utility) != math.Float64bits(b.Utility) ||
				math.Float64bits(a.Quality) != math.Float64bits(b.Quality)) {
				t.Fatalf("%s: cell (%d, %d) = %+v (known %v), cold solve %+v (known %v)", label, h, i, a, aok, b, bok)
			}
			if aok {
				cells++
			}
		}
	}
	return cells
}

// TestConeRefreshMatchesCold runs a router that keeps its batch's cone
// beside one that solves every cone cold, on the same calls, and holds
// the two to the same cells and the same paths after every solve: at
// N = 40 and N = 128, over 36 batches of ten connections with per-batch
// history, a peer marked dead and live again mid-batch, a connection
// re-solving mid-path after other connections' solves, initiators believed dead
// (the dead-start branch's second root) and closed batches whose ids
// the next batch uses again, with the same pair and budget.
func TestConeRefreshMatchesCold(t *testing.T) {
	for _, n := range []int{40, 128} {
		topo := buildTopo(n, 6, uint64(n))
		rng := dist.NewSource(uint64(n) + 7)
		avail := make(map[overlay.NodeID]float64, n)
		for i := 0; i < n; i++ {
			avail[overlay.NodeID(i)] = rng.Float64()
		}
		warm := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
		cold := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
		warm.Instrument(telemetry.NewRegistry())
		cold.Instrument(telemetry.NewRegistry())
		both := func(f func(r *UtilityIIRouter)) { f(warm); f(cold) }
		var solves, refreshed, cells, churned, displaced, deadStarts, reused int
		var lastRefresh int64
		// displace solves three connections of batch from start to end,
		// comparing each pair of solves, so that the kept solve is no
		// longer any connection's solved before.
		displace := func(batch int, start, end overlay.NodeID, budget int) {
			for c := 1; c <= 3; c++ {
				forgetCone(cold)
				both(func(r *UtilityIIRouter) { r.prescribed(start, start, end, batch, 100+c, budget) })
				requireSameCone(t, fmt.Sprintf("N=%d batch %d conn %d", n, batch, 100+c), warm, cold)
			}
			lastRefresh = warm.coneRefresh.Value()
		}
		batch := 0
		var initiator, responder overlay.NodeID
		var budget int
		for b := 1; b <= 36; b++ {
			if b%6 == 0 {
				reused++ // the batch before closed; its id, pair and budget come again
			} else {
				batch++
				initiator = overlay.NodeID(rng.Intn(n))
				responder = overlay.NodeID(rng.Intn(n - 1))
				if responder >= initiator {
					responder++
				}
				budget = 3 + rng.Intn(4)
			}
			deadStart := b%7 == 3
			if deadStart {
				both(func(r *UtilityIIRouter) { r.MarkDead(initiator) })
				deadStarts++
			}
			corpse := overlay.None
			for conn := 1; conn <= 10; conn++ {
				var between func(int)
				switch {
				case conn == 4 && b%3 == 1:
					// A forwarder dies before this connection and comes
					// back before connection 7.
					for corpse = initiator; corpse == initiator || corpse == responder; {
						corpse = overlay.NodeID(rng.Intn(n))
					}
					both(func(r *UtilityIIRouter) { r.MarkDead(corpse) })
					churned++
				case conn == 7 && corpse != overlay.None:
					both(func(r *UtilityIIRouter) { r.MarkLive(corpse) })
				case conn == 6 && b%4 == 2:
					// Other connections solve after this one's first hop;
					// its next hop re-solves from where it stands.
					between = func(remaining int) {
						if remaining == budget-1 {
							displace(batch+1000, responder, initiator, budget)
							displaced++
						}
					}
				}
				label := fmt.Sprintf("N=%d batch %d (#%d) conn %d", n, batch, b, conn)
				lockstepWalk(t, warm, cold, initiator, responder, batch, conn, budget, between, func() {
					solves++
					cells += requireSameCone(t, label, warm, cold)
					if r := warm.coneRefresh.Value(); r > lastRefresh {
						if deadStart {
							// Its cone has a second root, which Refresh refuses.
							t.Fatalf("%s: refreshed a cone solved from a dead initiator", label)
						}
						refreshed, lastRefresh = refreshed+1, r
					}
				})
			}
			if deadStart {
				both(func(r *UtilityIIRouter) { r.MarkLive(initiator) })
			}
			if b%6 == 5 {
				// The next batch uses this id again: its connections must
				// miss, as a new batch's do, and find the batch's cone no
				// longer kept.
				displace(batch, initiator, responder, budget)
			}
			both(func(r *UtilityIIRouter) { r.CloseBatch(batch) })
		}
		t.Logf("N=%d: %d connection solves compared (%d cells), %d of them refreshes", n, solves, cells, refreshed)
		if refreshed < solves/2 || churned == 0 || displaced == 0 || deadStarts == 0 || reused == 0 {
			t.Fatalf("N=%d: %d refreshes of %d solves; %d churned, %d displaced, %d dead starts, %d reused ids: the test no longer covers the kept cone",
				n, refreshed, solves, churned, displaced, deadStarts, reused)
		}
		if c := cold.coneRefresh.Value(); c != 0 {
			t.Fatalf("N=%d: the cold router refreshed %d times", n, c)
		}
	}
}

// TestKeptConeUnderConcurrentChurn drives one router from several
// goroutines at once — batches of connections that refresh the kept cone,
// a peer marked dead and live, batches closed as they finish — for the
// race detector: the kept cone, its dirty rows and the liveness it was
// discovered under are touched only under the router's locks. Run it
// with -race -count=10.
func TestKeptConeUnderConcurrentChurn(t *testing.T) {
	const n, budget = 40, 5
	topo := buildTopo(n, 6, 33)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(n))
	r.Instrument(telemetry.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 20; b++ {
				batch := 100*w + b
				for conn := 1; conn <= 10; conn++ {
					if calls := walk(r, overlay.NodeID(w), overlay.NodeID(n-1-w), batch, conn, budget); calls > budget {
						t.Errorf("batch %d conn %d: %d NextHop calls over a budget of %d", batch, conn, calls, budget)
					}
				}
				r.CloseBatch(batch)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.MarkDead(overlay.NodeID(10 + i%20))
			r.MarkLive(overlay.NodeID(10 + i%20))
		}
	}()
	wg.Wait()
	if r.coneRefresh.Value() == 0 {
		t.Fatal("no solve refreshed a kept cone")
	}
}

// TestBatchHistoryCountsConnections pins what selectivity counts: per
// edge, the distinct connections that used it, over the conn−1
// connections before the one asking, capped at 1 (§2.3, the simulator's
// rule). A connection reusing an edge — a cycle, a re-attempt — counts
// once; connections of one batch may interleave; the first connection
// sees σ = 0; batches are apart.
func TestBatchHistoryCountsConnections(t *testing.T) {
	topo := Topology{0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
	r := NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(3))
	sigma := func(from, to overlay.NodeID, conn int) float64 {
		return r.batches[1].Selectivity(from, to, conn)
	}
	for _, s := range []struct {
		conn     int
		from, to overlay.NodeID
		s01, s12 float64 // σ(0→1), σ(1→2) for connection 3 afterwards
	}{
		{1, 0, 1, 0.5, 0}, // conn 1's first hop
		{1, 1, 0, 0.5, 0}, // a cycle back to 0 …
		{1, 0, 1, 0.5, 0}, // … and the same edge again: once
		{2, 1, 2, 0.5, 0.5},
		{1, 1, 2, 0.5, 1}, // conn 1 again, after conn 2
		{2, 1, 2, 0.5, 1}, // conn 2's re-attempt re-records its hop
		{3, 0, 1, 1, 1},   // conn 3's own hop counts
	} {
		r.record(1, s.conn, s.from, s.to)
		if a, b := sigma(0, 1, 3), sigma(1, 2, 3); a != s.s01 || b != s.s12 {
			t.Fatalf("after conn %d %d→%d: σ(0→1) = %v, σ(1→2) = %v, want %v, %v", s.conn, s.from, s.to, a, b, s.s01, s.s12)
		}
	}
	if got := sigma(0, 1, 2); got != 1 {
		t.Fatalf("σ(0→1) for conn 2 = %v, want the cap 1 (two uses over one earlier connection)", got)
	}
	if got := sigma(0, 1, 1); got != 0 {
		t.Fatalf("first connection sees σ = %v", got)
	}
	if got := r.batches[2].Selectivity(0, 1, 3); got != 0 {
		t.Fatalf("batch without history has σ = %v", got)
	}
}

// walk plays one connection by calling NextHop at each holder in turn, as
// the transport does, and returns how many calls it took.
func walk(r Router, initiator, responder overlay.NodeID, batch, conn, budget int) (calls int) {
	self, pred := initiator, overlay.None
	for remaining := budget; remaining > 0; remaining-- {
		next, deliver := r.NextHop(self, pred, initiator, responder, batch, conn, remaining)
		calls++
		if deliver {
			break
		}
		self, pred = next, self
	}
	return calls
}

func cacheCounts(r *UtilityIIRouter) (hits, misses int64) {
	return r.cacheHits.Value(), r.cacheMisses.Value()
}

// TestSPNEKeptSolveBounded drives 640 connections one after another and
// checks what the router keeps: one solve per connection, every later
// hop read from it (the counters the benchmark reads), and one memo,
// sized for the longest budget, whatever the run's length. MarkDead,
// MarkLive and CloseBatch each forget the kept solve, and a connection
// dropped mid-path by MarkDead re-solves around the corpse.
func TestSPNEKeptSolveBounded(t *testing.T) {
	const n, budget = 40, 5
	topo := buildTopo(n, 6, 31)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(n))
	r.Instrument(telemetry.NewRegistry())

	conns, calls := 0, 0
	for batch := 1; conns < 640; batch++ {
		initiator, responder := overlay.NodeID(batch%n), overlay.NodeID((batch+n/2)%n)
		for conn := 1; conn <= 10; conn++ {
			if c := walk(r, initiator, responder, batch, conn, budget); c != budget {
				t.Fatalf("batch %d conn %d took %d NextHop calls, want %d", batch, conn, c, budget)
			}
			conns, calls = conns+1, calls+budget
			if hits, misses := cacheCounts(r); misses != int64(conns) || hits != int64(calls-conns) {
				t.Fatalf("after %d connections of %d calls: %d misses and %d hits, want %d and %d",
					conns, calls, misses, hits, conns, calls-conns)
			}
			if !r.coneKept || r.cone.batch != batch || r.stage.conn != conn || r.memoHops != budget {
				t.Fatalf("batch %d conn %d: kept solve %+v of conn %d (kept %v), memo %d stages deep; want this connection's, %d deep",
					batch, conn, r.cone, r.stage.conn, r.coneKept, r.memoHops, budget)
			}
		}
	}

	// A dropped connection: the hop its kept prescription names next is
	// found dead. MarkDead forgets the kept solve, and the re-solve routes
	// around the corpse.
	const batch = 1000
	initiator, responder := overlay.NodeID(0), overlay.NodeID(n-1)
	first, _ := r.NextHop(initiator, overlay.None, initiator, responder, batch, 1, budget)
	corpse := r.prescribed(first, initiator, responder, batch, 1, budget-1)
	if corpse < 0 || corpse == responder {
		t.Fatalf("prescription at %d is %d, need a forwarder to kill", first, corpse)
	}
	r.MarkDead(corpse)
	if r.coneKept {
		t.Fatal("MarkDead left the kept solve")
	}
	_, m0 := cacheCounts(r)
	second, _ := r.NextHop(first, initiator, initiator, responder, batch, 1, budget-1)
	if second == corpse {
		t.Fatalf("re-solve still routes through dead peer %d", corpse)
	}
	if _, m1 := cacheCounts(r); m1-m0 != 1 {
		t.Fatalf("after MarkDead: %d misses, want 1", m1-m0)
	}
	r.MarkLive(corpse)
	if r.coneKept {
		t.Fatal("MarkLive left the kept solve")
	}
	r.prescribed(initiator, initiator, responder, batch, 2, budget)
	r.CloseBatch(batch)
	if r.coneKept {
		t.Fatal("CloseBatch left the batch's kept solve")
	}
}

// TestInterleavedConnectionResolves pins what a connection reads after
// another connection's solve: connection A takes a hop, a connection of
// another batch solves, then A reads again. The read is a miss, and it
// prescribes what a fresh router's cold solve from A's (self, remaining)
// prescribes over the same history and liveness — A's own first hop
// included.
func TestInterleavedConnectionResolves(t *testing.T) {
	const n, budget = 40, 5
	topo := buildTopo(n, 6, 31)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(n))
	r.Instrument(telemetry.NewRegistry())
	initiator, responder := overlay.NodeID(0), overlay.NodeID(n-1)
	r.MarkDead(overlay.NodeID(n / 2))
	for conn := 1; conn <= 3; conn++ {
		walk(r, initiator, responder, 1, conn, budget) // history, so rows score σ > 0
	}
	const batch, conn = 1, 4
	first, deliver := r.NextHop(initiator, overlay.None, initiator, responder, batch, conn, budget)
	if deliver {
		t.Fatal("connection A delivered at its first hop")
	}
	walk(r, 1, overlay.NodeID(n-2), batch+1, 1, budget)
	_, m0 := cacheCounts(r)
	got := r.prescribed(first, initiator, responder, batch, conn, budget-1)
	if _, m1 := cacheCounts(r); m1-m0 != 1 {
		t.Fatalf("A's read after another connection's solve counted %d misses, want 1", m1-m0)
	}

	fresh := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(n))
	fresh.Instrument(telemetry.NewRegistry())
	fresh.MarkDead(overlay.NodeID(n / 2))
	fresh.batches[batch] = r.batches[batch] // the same history, A's first hop included
	want := fresh.prescribed(first, initiator, responder, batch, conn, budget-1)
	if fresh.coneCold.Value() != 1 {
		t.Fatal("the fresh router did not solve cold")
	}
	if got != want {
		t.Fatalf("A re-solved to %d at (%d, %d); a fresh router's cold solve says %d", got, budget-1, first, want)
	}
}

// TestSPNEWarmSolveAllocs pins the steady state of DESIGN.md §3q: with
// every buffer grown, a read the kept solve answers, solving a new
// connection cold — rows, the cone — and re-solving one hop shorter a
// connection read after another's solve (the memo keeps the size of the
// longest budget seen) allocate nothing, and neither does the next
// connection's refresh of the batch's kept cone.
func TestSPNEWarmSolveAllocs(t *testing.T) {
	const n, budget = 40, 5
	topo := buildTopo(n, 6, 32)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(n))
	r.Instrument(telemetry.NewRegistry())
	for conn := 1; conn <= 3; conn++ {
		walk(r, 0, n-1, 1, conn, budget) // history, so rows score σ > 0
	}
	conn := 100
	solve := func() {
		conn++
		r.prescribed(0, 0, n-1, 1, conn, budget)
		r.prescribed(1, 0, n-1, 1, conn-1, budget-1) // read after conn's solve
	}
	for i := 0; i < 10; i++ {
		solve()
	}
	c0 := r.coneCold.Value()
	if allocs := testing.AllocsPerRun(200, solve); allocs != 0 {
		t.Fatalf("warm solve allocates %.0f times, want 0", allocs)
	}
	if got := r.coneCold.Value() - c0; got < 400 {
		t.Fatalf("pin did not exercise the cold solve: %d cold solves", got)
	}
	// The connection solved last, read again: a hit.
	hit := func() { r.prescribed(1, 0, n-1, 1, conn-1, budget-1) }
	h0, m0 := cacheCounts(r)
	if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
		t.Fatalf("hit allocates %.0f times, want 0", allocs)
	}
	if h1, m1 := cacheCounts(r); h1-h0 < 200 || m1 != m0 {
		t.Fatalf("pin did not exercise the hit: %d hits, %d misses", h1-h0, m1-m0)
	}
	// The next connection of the batch from the same root: a refresh.
	refresh := func() {
		conn++
		r.prescribed(0, 0, n-1, 1, conn, budget)
	}
	refresh()
	r0 := r.coneRefresh.Value()
	if allocs := testing.AllocsPerRun(200, refresh); allocs != 0 {
		t.Fatalf("refresh allocates %.0f times, want 0", allocs)
	}
	if got := r.coneRefresh.Value() - r0; got < 200 {
		t.Fatalf("pin did not exercise the refresh: %d refreshes", got)
	}
}

// TestLiveRefreshCells pins the work of a refresh, not only its time, at
// BenchmarkLiveRefresh's shape (N = 128, d = 6, budget 5). The next
// connection of the batch re-scores every holder's row, yet recomputes at
// most 16 cells, where recomputing every cell above stage 2 and the dirty
// ones at it takes 46: a cell whose row is no holder's, and whose
// successors kept their Quality, keeps its value. Re-solving the same
// connection on the same history moves no row's quality, so only the
// holders' own cells are recomputed: no change propagates above them.
func TestLiveRefreshCells(t *testing.T) {
	r, n, budget := liveSolveRouter()
	r.Instrument(telemetry.NewRegistry())
	resp := overlay.NodeID(n - 1)
	conn := 1000
	for i := 0; i < 10; i++ {
		conn++
		c0, r0 := r.cellsFresh.Value(), r.coneRefresh.Value()
		r.prescribed(0, 0, resp, 1, conn, budget)
		cells := r.cellsFresh.Value() - c0
		t.Logf("connection %d: %d cells recomputed", conn, cells)
		if r.coneRefresh.Value() != r0+1 {
			t.Fatalf("connection %d did not refresh the kept cone", conn)
		}
		if cells > 16 {
			t.Fatalf("connection %d: a refresh recomputed %d cells, want at most 16", conn, cells)
		}
	}
	own, above := 0, 0 // the holders' cells in the cone, and those above stage 2
	for h := 2; h <= budget; h++ {
		for i := range r.nbrs {
			if _, ok := r.game.Cell(&r.memo, h, i); ok && r.holder[i] {
				own++
				if h > 2 {
					above++
				}
			}
		}
	}
	c0 := r.cellsFresh.Value()
	r.cacheMu.Lock()
	r.solve(0, 0, resp, 1, conn, budget)
	r.cacheMu.Unlock()
	if got := r.cellsFresh.Value() - c0; got != int64(own) {
		t.Fatalf("re-solving connection %d on the same history recomputed %d cells, want the holders' own %d (%d above stage 2)", conn, got, own, above)
	}
	t.Logf("same history: %d cells recomputed, the holders' own (%d above stage 2)", own, above)
}

// liveSolveRouter is the Model-II router both live-solve benchmarks time,
// at inproc_um2_agg's shape (128 peers, degree 6, budget 5): batches 1
// and 2 hold the same history, so rows score σ > 0, and every buffer is
// grown.
func liveSolveRouter() (r *UtilityIIRouter, n, budget int) {
	n, budget = 128, 5
	topo := buildTopo(n, 6, 32)
	r = NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(n))
	for batch := 1; batch <= 2; batch++ {
		for conn := 1; conn <= 3; conn++ {
			walk(r, 0, overlay.NodeID(n-1), batch, conn, budget)
		}
	}
	for conn := 101; conn <= 110; conn++ {
		r.prescribed(0, 0, overlay.NodeID(n-1), 1+conn%2, conn, budget)
	}
	return r, n, budget
}

// BenchmarkLiveSolve is the in-process guard for the code the live router
// shares with the simulator's solver: one op is one cold cache-miss
// prescribed — the σ overlays of the history's holders, game.SolveFrom's
// cone from (I, budget) over the neighbor lists read in place under the
// row rule (game.RowRule) through solveCell, the prescription copy. Ops
// alternate between two batches, so none finds its batch's cone kept.
// A change to internal/game is measured by building this package's test
// binary at the parent commit and at the change (go test -c) and
// alternating the two; BenchmarkConeWorld in internal/core is the same
// for the simulator's solve.
func BenchmarkLiveSolve(b *testing.B) {
	r, n, budget := liveSolveRouter()
	conn := 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn++
		r.prescribed(0, 0, overlay.NodeID(n-1), 1+conn%2, conn, budget)
	}
}

// BenchmarkLiveRefresh is BenchmarkLiveSolve on the per-connection path
// of inproc_um2_agg: every op is the next connection of one batch from
// the same root, which re-solves the kept cone (game.PathGame.Refresh)
// instead of solving it cold.
func BenchmarkLiveRefresh(b *testing.B) {
	r, n, budget := liveSolveRouter()
	conn := 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn++
		r.prescribed(0, 0, overlay.NodeID(n-1), 1, conn, budget)
	}
}
