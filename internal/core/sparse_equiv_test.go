package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

// stageEdgeQuality returns q(i, j) for b's stage game, or -1 when the edge
// does not exist: the dense oracle's edge function, written from the
// stage game's definition rather than from the solver's rows and row
// rule. The delivery edge has quality 1; R, the initiator and offline
// nodes are nobody's successor; every other edge is an overlay link
// scored by b.Quality.
func (b *Batch) stageEdgeQuality(i, j overlay.NodeID) float64 {
	if i == j {
		return -1
	}
	if !b.sys.Net.Online(i) || i == b.Responder {
		return -1
	}
	if j == b.Responder {
		return 1 // delivery edge, last-edge rule
	}
	if j == b.Initiator || !b.sys.Net.Online(j) {
		return -1
	}
	if !b.sys.Net.IsNeighbor(i, j) {
		return -1
	}
	return b.Quality(i, overlay.None, j)
}

// denseOracle is b's stage game solved the cold way: every edge read once
// through stageEdgeQuality into an n×n matrix, then the full table by
// game.PathGame.Solve over it, with no rows and no row rule. It is the
// reference the demand-driven cells are pinned bit-identical against.
type denseOracle struct {
	n     int
	q     []float64 // q[i·n+j] as of the solve
	table [][]game.Decision
}

func solveDense(b *Batch) *denseOracle {
	n := b.sys.Net.Len()
	o := &denseOracle{n: n, q: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			o.q[i*n+j] = b.stageEdgeQuality(overlay.NodeID(i), overlay.NodeID(j))
		}
	}
	g := game.PathGame{
		Nodes: n, Responder: int(b.Responder),
		EdgeQuality: func(i, j int) float64 { return o.q[i*n+j] },
		Pf:          b.Contract.Pf, Pr: b.Contract.Pr, Cost: b.sys.cfg.Cost, MaxHops: b.sys.cfg.MaxHops,
	}
	o.table = g.Solve()
	return o
}

func (o *denseOracle) edge(i, j overlay.NodeID) float64 { return o.q[int(i)*o.n+int(j)] }

// equivSystem builds one system for the equivalence runs. Everything that
// consumes randomness is derived from seed alone, so two calls with the
// same seed build byte-identical worlds.
func equivSystem(t *testing.T, n int, seed uint64) *System {
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
	return sys
}

// equivRun is what one batch of a scripted UM-II run is checked on: its
// connections' paths, for the settled payoffs, and the most cells any one
// connection computed.
type equivRun struct {
	paths     []*PathResult
	connCells int
}

// fullTable asks the batch's solver for every (i, h) and returns a copy of
// the resulting table. The roots accumulate in one memo, so every cell
// ends up solved.
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
// Batch.prescribed reads it — every cell through game.PathGame.Cell,
// stage 1 from the delivery rule — and reports which cells hold a value
// of the game. The copy outlives the storage later solves overwrite.
func solvedTable(sys *System) (tbl [][]game.Decision, known [][]bool) {
	tbl = make([][]game.Decision, sys.cfg.MaxHops+1)
	known = make([][]bool, len(tbl))
	for h := range tbl {
		tbl[h], known[h] = make([]game.Decision, sys.stage.Nodes), make([]bool, sys.stage.Nodes)
		for i := range tbl[h] {
			tbl[h][i], known[h][i] = sys.stage.Cell(&sys.memo, h, i)
		}
	}
	return tbl, known
}

// runConnection runs b's next connection against the dense oracle of the
// game that connection solves, and returns it with the cells its solve
// left known.
//
// The oracle is solved first, at the connection's index and with every
// estimator the solve would create: creation draws from the probe set's
// own source, in the order the solve itself uses, so the run's draws do
// not move. The connection's hop budget is read off a copy of the
// system's source. Then, by Float64bits:
//   - every cell of the connection's cone is the oracle's;
//   - every hop a good holder made with budget left read a solved cell,
//     and follows the oracle's prescription wherever Route plays it (a
//     prescription back to the predecessor, or to a node that declines,
//     sends the holder to the ranked candidates);
//   - every path edge carries the oracle's edge quality: the matrix the
//     oracle solved over for an edge first crossed, and stageEdgeQuality
//     after the connection for one crossed again (σ then counts the
//     connection's own use).
func (r *equivRun) runConnection(t *testing.T, label string, b *Batch) (*PathResult, [][]bool) {
	t.Helper()
	s := b.sys
	b.k++
	s.createEstimators(b.Responder)
	want := solveDense(b)
	b.k--
	budget := s.cfg.MinHops
	if span := s.cfg.MaxHops - s.cfg.MinHops; span > 0 {
		src := *s.rng
		budget += src.Intn(span + 1)
	}

	before := s.solverStats.FrontierCells
	res := b.RunConnection()
	r.connCells = max(r.connCells, s.solverStats.FrontierCells-before)
	r.paths = append(r.paths, res)
	label = fmt.Sprintf("%s conn %d", label, res.Conn)

	got, known := solvedTable(s)
	requireOracleCells(t, label, got, known, want.table)
	crossed := map[[2]overlay.NodeID]bool{}
	for hop := 0; hop+1 < len(res.Nodes); hop++ {
		cur, next, pred := res.Nodes[hop], res.Nodes[hop+1], overlay.None
		if hop > 0 {
			pred = res.Nodes[hop-1]
		}
		q := want.edge(cur, next)
		if e := [2]overlay.NodeID{cur, next}; crossed[e] {
			q = b.stageEdgeQuality(cur, next)
		} else {
			crossed[e] = true
		}
		if !sameBits(res.EdgeQualities[hop], q) {
			t.Fatalf("%s hop %d (%d→%d): edge quality %x, oracle %x", label, hop, cur, next,
				math.Float64bits(res.EdgeQualities[hop]), math.Float64bits(q))
		}
		remaining := budget - hop
		if remaining <= 0 {
			if next != b.Responder {
				t.Fatalf("%s hop %d: budget spent, yet %d→%d", label, hop, cur, next)
			}
			continue
		}
		if s.Net.Node(cur).Malicious {
			continue // routes at random, reading no cell
		}
		if !known[remaining][cur] {
			t.Fatalf("%s hop %d: holder %d read cell (%d,%d), which its solve left unknown", label, hop, cur, remaining, cur)
		}
		p := overlay.NodeID(want.table[remaining][cur].Next)
		if p >= 0 && p != pred && (p == b.Responder || b.Accepts(p)) && next != p {
			t.Fatalf("%s hop %d: holder %d went to %d, oracle prescribes %d", label, hop, cur, next, p)
		}
	}
	return res, known
}

// requireOracleCells fails unless every known cell of got is the
// oracle's, by Float64bits.
func requireOracleCells(t *testing.T, label string, got [][]game.Decision, known [][]bool, want [][]game.Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: table rows %d != %d", label, len(got), len(want))
	}
	for h := range got {
		if len(got[h]) != len(want[h]) {
			t.Fatalf("%s: row %d len %d != %d", label, h, len(got[h]), len(want[h]))
		}
		for i := range got[h] {
			if (known == nil || known[h][i]) && !sameCell(got[h][i], want[h][i]) {
				t.Fatalf("%s: cell (%d,%d) = %+v, dense oracle %+v", label, h, i, got[h][i], want[h][i])
			}
		}
	}
}

// requireOracleTable asks b's solver for every cell of its game as it
// stands after a connection and holds the whole table to the dense
// oracle's.
func requireOracleTable(t *testing.T, label string, b *Batch) {
	t.Helper()
	got := fullTable(b)
	requireOracleCells(t, label+" full table", got, nil, solveDense(b).table)
}

// settleOracle recomputes b's payoffs from the paths its connections took,
// each held to the dense oracle as it ran: a forwarder's m counts its
// interior positions, ‖π‖ the distinct forwarders, and its transmission
// cost charges each successor once per connection that crossed to it, in
// ascending successor order.
func settleOracle(b *Batch, paths []*PathResult) []NodePayoff {
	m := map[overlay.NodeID]int{}
	uses := map[overlay.NodeID]map[overlay.NodeID]int{}
	for _, p := range paths {
		crossed := map[[2]overlay.NodeID]bool{}
		for i := 0; i+1 < len(p.Nodes); i++ {
			from, to := p.Nodes[i], p.Nodes[i+1]
			if i > 0 {
				m[from]++
			}
			if e := [2]overlay.NodeID{from, to}; !crossed[e] {
				crossed[e] = true
				if uses[from] == nil {
					uses[from] = map[overlay.NodeID]int{}
				}
				uses[from][to]++
			}
		}
	}
	var out []NodePayoff
	for id, mi := range m {
		succ := make([]overlay.NodeID, 0, len(uses[id]))
		for to := range uses[id] {
			succ = append(succ, to)
		}
		slices.Sort(succ)
		total := 0.0
		for _, to := range succ {
			total += float64(uses[id][to]) * b.sys.cfg.Cost.Transmission(int(id), int(to))
		}
		income := b.Contract.Payoff(mi, len(m))
		cost := b.sys.cfg.Cost.Participation + total
		out = append(out, NodePayoff{Node: id, Malicious: b.sys.Net.Node(id).Malicious,
			Forwards: mi, Income: income, Cost: cost, Net: income - cost})
	}
	slices.SortFunc(out, func(x, y NodePayoff) int { return int(x.Node) - int(y.Node) })
	return out
}

// requireOraclePayoffs holds b's settled payoffs to settleOracle over the
// run's paths, by Float64bits.
func requireOraclePayoffs(t *testing.T, label string, b *Batch, run *equivRun) {
	t.Helper()
	got, want := b.Settle(), settleOracle(b, run.paths)
	if len(got) != len(want) {
		t.Fatalf("%s: %d payoffs vs %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Malicious != w.Malicious || g.Forwards != w.Forwards ||
			!sameBits(g.Income, w.Income) || !sameBits(g.Cost, w.Cost) || !sameBits(g.Net, w.Net) {
			t.Fatalf("%s: payoff[%d] = %+v, oracle %+v", label, i, g, w)
		}
	}
}

// runEquivScript drives one system through a deterministic churn /
// probe-tick / connection script, holding every connection and the full
// table after it to the dense oracle, and the settled payoffs to the
// oracle's.
func runEquivScript(t *testing.T, label string, n int, seed uint64) *equivRun {
	t.Helper()
	sys := equivSystem(t, n, seed)
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
		out.runConnection(t, label, b)
		requireOracleTable(t, fmt.Sprintf("%s round %d", label, round), b)
	}
	requireOraclePayoffs(t, label, b, out)
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
// equivalence property: for populations up to N = 400, across churn,
// probe ticks and history accumulation, every connection's cone, paths
// and edge qualities, the full table the demand-driven solver yields
// after every round when asked for all (i, h), and the UM-II settled
// payoffs must reproduce the dense oracle bit for bit (Float64bits on
// utilities and qualities).
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
		label := fmt.Sprintf("N=%d/seed=%d", tc.n, tc.seed)
		requireSmallCones(t, label, tc.n, runEquivScript(t, label, tc.n, tc.seed))
	}
}
