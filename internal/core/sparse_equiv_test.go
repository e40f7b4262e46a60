package core

import (
	"fmt"
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

// equivSystem builds one system for the demand-vs-dense equivalence runs.
// Everything that consumes randomness is derived from seed alone, so two
// calls with the same seed build byte-identical worlds regardless of the
// dense knob, which must not influence transcripts.
func equivSystem(t *testing.T, n int, seed uint64, dense bool) *System {
	t.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < n; i++ {
		net.Join(0, i%7 == 3)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	for i := 0; i < 3; i++ {
		probes.TickAll()
	}
	sys, err := NewSystem(DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	sys.forceDense = dense
	return sys
}

// equivRun is everything one scripted UM-II run produces: per-connection
// paths with their edge qualities, per-round solved decision tables, the
// settled payoffs, and the most cells any one connection computed.
type equivRun struct {
	tables    [][][]game.Decision
	paths     []*PathResult
	payoffs   []NodePayoff
	connCells int
}

// fullTable asks the batch's solver for every (i, h) and returns a copy of
// the resulting table. On the demand-driven solver the roots accumulate in
// one memo, so every cell ends up solved; the dense oracle holds its full
// table from the first ask on.
func fullTable(b *Batch) [][]game.Decision {
	for h := 0; h <= b.sys.cfg.MaxHops; h++ {
		for i := 0; i < b.sys.Net.Len(); i++ {
			b.spneTable(overlay.NodeID(i), h)
		}
	}
	tbl, _ := solvedTable(b.sys)
	return tbl
}

// solvedTable copies the table the system's last solve left as
// Batch.prescribed reads it — the dense oracle's full table, or every
// cell through game.PathGame.Cell, stage 1 from the delivery rule — and
// reports which cells hold a value of the game (all, on the oracle). The
// copy outlives the storage later solves overwrite.
func solvedTable(sys *System) (tbl [][]game.Decision, known [][]bool) {
	tbl = make([][]game.Decision, sys.cfg.MaxHops+1)
	known = make([][]bool, len(tbl))
	for h := range tbl {
		if sys.forceDense {
			tbl[h] = append([]game.Decision(nil), sys.dense[h]...)
			known[h] = make([]bool, len(tbl[h]))
			for i := range known[h] {
				known[h][i] = true
			}
			continue
		}
		tbl[h], known[h] = make([]game.Decision, sys.stage.Nodes), make([]bool, sys.stage.Nodes)
		for i := range tbl[h] {
			tbl[h][i], known[h][i] = sys.stage.Cell(&sys.memo, h, i)
		}
	}
	return tbl, known
}

// runConnection runs b's next connection and folds the cells it computed
// into the run's high-water mark.
func (r *equivRun) runConnection(b *Batch) *PathResult {
	before := b.sys.solverStats.FrontierCells
	res := b.RunConnection()
	r.connCells = max(r.connCells, b.sys.solverStats.FrontierCells-before)
	r.paths = append(r.paths, res)
	return res
}

// runEquivScript drives one system through a deterministic churn /
// probe-tick / connection script and records its observable outputs.
func runEquivScript(t *testing.T, n int, seed uint64, dense bool) *equivRun {
	t.Helper()
	sys := equivSystem(t, n, seed, dense)
	b, err := sys.NewBatch(0, overlay.NodeID(n-1), Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	script := dist.NewSource(seed ^ 0x2545f4914f6cdd1d)
	out := &equivRun{}
	now := sim.Time(0)
	for round := 0; round < 12; round++ {
		now += 60
		switch script.Intn(4) {
		case 0: // take a random non-endpoint node offline
			ids := sys.Net.OnlineIDs()
			id := ids[script.Intn(len(ids))]
			if id != b.Initiator && id != b.Responder {
				sys.Net.Leave(now, id, false)
			}
		case 1: // bring the first offline node back
			for _, id := range sys.Net.AllIDs() {
				if sys.Net.Node(id).State == overlay.Offline {
					sys.Net.Rejoin(now, id)
					break
				}
			}
		case 2: // neighbor repair + probe round
			for _, id := range sys.Net.OnlineIDs() {
				sys.Net.RefreshNeighbors(id)
			}
			sys.Probes.TickAll()
		case 3: // quiet round
		}
		out.runConnection(b)
		out.tables = append(out.tables, fullTable(b))
	}
	out.payoffs = b.Settle()
	return out
}

// sameBits reports Float64bits identity — the satellite's equivalence bar
// (plain == would also accept +0 vs −0 and reject equal NaNs).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameCell reports full bit-equality of two decisions.
func sameCell(a, b game.Decision) bool {
	return a.Node == b.Node && a.Next == b.Next && sameBits(a.Utility, b.Utility) && sameBits(a.Quality, b.Quality)
}

func requireSameRun(t *testing.T, label string, got, want *equivRun) {
	t.Helper()
	if len(got.tables) != len(want.tables) {
		t.Fatalf("%s: %d rounds vs %d", label, len(got.tables), len(want.tables))
	}
	for r := range got.tables {
		g, w := got.tables[r], want.tables[r]
		if len(g) != len(w) {
			t.Fatalf("%s round %d: table rows %d != %d", label, r, len(g), len(w))
		}
		for h := range g {
			if len(g[h]) != len(w[h]) {
				t.Fatalf("%s round %d: row %d len %d != %d", label, r, h, len(g[h]), len(w[h]))
			}
			for i := range g[h] {
				if !sameCell(g[h][i], w[h][i]) {
					t.Fatalf("%s round %d: table[%d][%d] = %+v, want %+v", label, r, h, i, g[h][i], w[h][i])
				}
			}
		}
		gp, wp := got.paths[r], want.paths[r]
		if len(gp.Nodes) != len(wp.Nodes) {
			t.Fatalf("%s round %d: path %v vs %v", label, r, gp.Nodes, wp.Nodes)
		}
		for i := range gp.Nodes {
			if gp.Nodes[i] != wp.Nodes[i] {
				t.Fatalf("%s round %d hop %d: node %d vs %d", label, r, i, gp.Nodes[i], wp.Nodes[i])
			}
		}
		if len(gp.EdgeQualities) != len(wp.EdgeQualities) {
			t.Fatalf("%s round %d: %d edges vs %d", label, r, len(gp.EdgeQualities), len(wp.EdgeQualities))
		}
		for i := range gp.EdgeQualities {
			if !sameBits(gp.EdgeQualities[i], wp.EdgeQualities[i]) {
				t.Fatalf("%s round %d edge %d: %x vs %x", label, r, i,
					math.Float64bits(gp.EdgeQualities[i]), math.Float64bits(wp.EdgeQualities[i]))
			}
		}
	}
	if len(got.payoffs) != len(want.payoffs) {
		t.Fatalf("%s: %d payoffs vs %d", label, len(got.payoffs), len(want.payoffs))
	}
	for i := range got.payoffs {
		g, w := got.payoffs[i], want.payoffs[i]
		if g.Node != w.Node || g.Forwards != w.Forwards ||
			!sameBits(g.Income, w.Income) || !sameBits(g.Cost, w.Cost) || !sameBits(g.Net, w.Net) {
			t.Fatalf("%s: payoff[%d] = %+v, want %+v", label, i, g, w)
		}
	}
}

// requireSmallCones fails unless the run's connections each computed
// fewer cells than the full table holds — at N = 400 the cone of a budget
// ≤ 6 cannot cover it, so a run that did is not demand-driven and its
// equivalence with the oracle proves nothing.
func requireSmallCones(t *testing.T, label string, n int, run *equivRun) {
	t.Helper()
	if n < 400 {
		return
	}
	if full := (DefaultConfig().MaxHops + 1) * n; run.connCells == 0 || run.connCells >= full {
		t.Errorf("%s: a connection computed %d cells, the full table has %d", label, run.connCells, full)
	}
}

// TestSparseDenseEquivalence is the randomized demand-vs-dense
// equivalence property: for populations up to N = 400, every cell the
// demand-driven solver yields when asked for all (i, h) must reproduce
// the retained dense SolveInto oracle bit for bit after every round
// (Float64bits on utilities and qualities), with identical chosen paths
// and edge qualities and identical UM-II settled payoffs, across churn,
// probe ticks and history accumulation.
func TestSparseDenseEquivalence(t *testing.T) {
	cases := []struct {
		n    int
		seed uint64
	}{
		{12, 1},
		{37, 7},
		{80, 42},
		{200, 1234},
		{400, 31},
	}
	for _, tc := range cases {
		dense := runEquivScript(t, tc.n, tc.seed, true)
		sparse := runEquivScript(t, tc.n, tc.seed, false)
		label := fmt.Sprintf("N=%d/seed=%d", tc.n, tc.seed)
		requireSameRun(t, label, sparse, dense)
		requireSmallCones(t, label, tc.n, sparse)
	}
}
