// Package game implements the game-theoretic machinery of §2.4 that the
// simulator and the live routers run: the L-stage path-formation game
// whose subgame-perfect Nash equilibrium (SPNE) is computed by backward
// induction (Utility Model II), the cost model, and the paper's
// Propositions 1–3 as thresholds and closed forms.
package game

import (
	"fmt"
	"math"
)

// ---------------------------------------------------------------------------
// Cost model (§2.4.1).
// ---------------------------------------------------------------------------

// CostModel captures the two peer costs: a one-time participation cost C^p
// per session, and a per-forwarding transmission cost C^t = b·l where b is
// the payload size and l the per-unit cost of the link used.
type CostModel struct {
	// Participation is C^p, the cost of running the application software
	// for a peer session.
	Participation float64
	// PayloadSize is b in C^t = b·l.
	PayloadSize float64
	// LinkUnitCost returns l for the directed link (i, j), in cost per
	// payload unit. The paper models it as proportional to (inverse)
	// communication bandwidth.
	LinkUnitCost func(i, j int) float64
}

// Transmission returns C^t(i, j) = b·l(i, j).
func (c CostModel) Transmission(i, j int) float64 {
	if c.LinkUnitCost == nil {
		return 0
	}
	return c.PayloadSize * c.LinkUnitCost(i, j)
}

// UniformCost returns a CostModel with constant participation cost cp and
// constant transmission cost ct on every link, the setting of Prop. 2.
func UniformCost(cp, ct float64) CostModel {
	return CostModel{
		Participation: cp,
		PayloadSize:   1,
		LinkUnitCost:  func(int, int) float64 { return ct },
	}
}

// BandwidthCost models §3's "transmission cost between two peers as being
// proportional to the communication bandwidth between them": every
// unordered pair (i, j) gets a deterministic pseudo-random bandwidth, and
// the per-unit link cost is ctLo..ctHi scaled inversely with it (slow
// links cost more to push a payload through). The mapping is a pure
// function of (seed, i, j), so both endpoints and every re-run agree.
func BandwidthCost(cp, ctLo, ctHi float64, seed uint64) CostModel {
	if ctHi < ctLo {
		panic(fmt.Sprintf("game: BandwidthCost range [%g, %g]", ctLo, ctHi))
	}
	return CostModel{
		Participation: cp,
		PayloadSize:   1,
		LinkUnitCost: func(i, j int) float64 {
			if i > j {
				i, j = j, i
			}
			// SplitMix64-style hash of (seed, i, j) → uniform in [0, 1).
			x := seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xbf58476d1ce4e5b9
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			u := float64(x>>11) / (1 << 53)
			return ctLo + (ctHi-ctLo)*u
		},
	}
}

// ---------------------------------------------------------------------------
// Propositions 2 and 3: participation and dominance thresholds.
// ---------------------------------------------------------------------------

// ParticipationThreshold returns the right-hand side of Prop. 2:
// C^p·N/(L·k) + C^t. Forwarding benefit P_f above this induces peers to
// participate: over a batch of k connections with average length L, an
// expected L·k/N forwarding instances per peer recoup the one-time
// participation cost.
func ParticipationThreshold(cp, ct float64, n int, l float64, k int) float64 {
	if n <= 0 || l <= 0 || k <= 0 {
		panic(fmt.Sprintf("game: ParticipationThreshold(n=%d, L=%g, k=%d)", n, l, k))
	}
	return cp*float64(n)/(l*float64(k)) + ct
}

// ForwardingDominant reports Prop. 3's condition P_f > C^p + C^t, under
// which forwarding is a dominant strategy for the forwarding stage: the
// per-instance benefit alone covers the total per-instance cost, whatever
// the other players do.
func ForwardingDominant(pf, cp, ct float64) bool {
	return pf > cp+ct
}

// ---------------------------------------------------------------------------
// The L-stage path-formation game (§2.4.3) and its SPNE.
// ---------------------------------------------------------------------------

// PathGame is the sequential game played during path formation under
// Utility Model II: at each stage the current holder of the payload picks
// a successor, and its utility is
//
//	U_i(j) = P_f + q(π(i, j, R))·P_r − (C^p_i + C^t(i, j))
//
// where q(π(i,j,R)) is the quality of the best continuation path from i
// through j to the responder, computed as the sum of edge qualities
// (§2.3). The game has at most MaxHops stages.
type PathGame struct {
	// Nodes is the number of vertices; vertex indices are 0..Nodes-1.
	Nodes int
	// Responder is the terminal vertex R.
	Responder int
	// EdgeQuality returns q(i, j), or a negative value if the edge (i, j)
	// does not exist. Exactly one of EdgeQuality and Adjacency must be set.
	EdgeQuality func(i, j int) float64
	// Adjacency, when non-nil, supplies the sparse neighbor-local view of
	// the game: i's row, its candidate successors with their edge
	// qualities, in ASCENDING vertex order and duplicate free. The solver
	// reads every row through Rule, so a row may be a node's unfiltered
	// base row; under the zero Rule it is read as it is. The induction then
	// visits only the ≤ d candidates each node actually has instead of
	// scanning all n vertices, and — because the dense loop also scans j
	// ascending — reproduces the dense solver's epsilon tie-breaks bit for
	// bit. Entries with a negative quality, and i itself, are skipped like
	// missing dense edges; a vertex with no outgoing edges returns empty
	// slices, and a row names vertices 0 … Nodes−1 only. The slices are
	// only read during a solve and never retained.
	Adjacency func(i int) (succ []int32, qual []float64)
	// Rule is the stage game's row rule, applied by every read of an
	// Adjacency row (RowRule), and the one source of the delivery edges
	// (i, R). SolveFrom and Cell need an active rule: under it a holder
	// with one hop left has the delivery edge as its only move, its
	// stage-1 cell is read from that edge alone (deliverCell), and every
	// successor other than R of a row has the row's own delivery edge,
	// so a stage-2 cell reads one delivery value for all its successors
	// (penultimateCell) and no stage-1 cell is ever stored. The zero
	// value reads rows as they are, for SolveInto over pre-filtered rows.
	Rule RowRule
	// Pf, Pr are the contract's forwarding and routing benefits.
	Pf, Pr float64
	// Cost is the cost model used for C^p and C^t.
	Cost CostModel
	// MaxHops caps the number of stages L.
	MaxHops int
	// Stats, when non-nil, is overwritten by each SolveInto with what the
	// solve actually did (stages swept, stages skipped by the fixed-point
	// exit).
	Stats *SolveStats

	// visit[j] says whether a row visits successor j under Rule: j holds
	// a row and is not the initiator. Every solve recomputes it from Rule
	// (prepare), so that a row's read tests one flag per entry.
	visit []bool
}

// RowRule is the stage game's row rule (§2.4.3): which of a row's
// entries the induction visits. Under an active rule (Holds non-nil)
// vertex i holds a row iff Holds[i] and i ≠ R, and a vertex that holds
// none has an empty row. A row drops i itself, Initiator, and every
// successor that holds no row — R included, and any node Holds does not
// report — so every successor other than R holds a row itself (a
// row-less one could never continue anyway: its quality-to-go is −∞ at
// every stage). When Deliver is set, every row also visits the delivery
// edge (i, R), at the literal quality 1 of the last-edge rule, at R's
// ascending position: the induction then visits successors in exactly
// the order a dense scan over j would, so every epsilon tie-break lands
// identically. So Adjacency may return a node's base row — its
// neighbors at the quality of an edge no history names — and no row is
// ever spliced. The zero value is the identity: rows are read as they
// are, and no vertex has a delivery edge but the one its row lists.
type RowRule struct {
	// Holds is indexed by vertex and read, never written, during a solve;
	// an id past its end holds no row.
	Holds []bool
	// Initiator is the vertex no row visits: routing back through I
	// would reveal nothing useful. An id outside 0 … Nodes−1 names none.
	Initiator int
	// Deliver says whether R can be delivered to: it gives every vertex
	// that holds a row the delivery edge.
	Deliver bool
}

// holds reports whether vertex i holds a row under an active rule r of a
// game whose responder is resp.
func (r *RowRule) holds(i, resp int) bool {
	return i != resp && uint(i) < uint(len(r.Holds)) && r.Holds[i]
}

// deliver returns q(i, R) of i's delivery edge under the game's active
// rule, or −1 when it has none.
func (g *PathGame) deliver(i int) float64 {
	if r := &g.Rule; r.Deliver && r.holds(i, g.Responder) {
		return 1
	}
	return -1
}

// prepare readies visit for a solve under the game's rule: Holds with
// R and the initiator dropped, one flag per vertex.
func (g *PathGame) prepare() {
	r := &g.Rule
	if r.Holds == nil {
		return
	}
	if len(g.visit) != g.Nodes {
		g.visit = make([]bool, g.Nodes)
	}
	clear(g.visit[copy(g.visit, r.Holds):])
	g.visit[g.Responder] = false
	if uint(r.Initiator) < uint(g.Nodes) {
		g.visit[r.Initiator] = false
	}
}

// rowView is one row as the rule reads it: positions 0 … n−1, which at
// visits in ascending vertex order. Every read of a row — SolveFrom's
// discovery, penultimateCell, solveCell, AppendRow — loops over them, so
// the rule is written once, and at is small enough to be inlined into
// each loop.
type rowView struct {
	succ []int32
	qual []float64
	// n counts the positions: the row's entries, and one for the delivery
	// edge when the rule gives the row one. deliver says that edge is
	// still to come; back is 1 once it came, for the entries after it.
	n, back int
	deliver bool
	// self is the row's vertex and resp R; visit is the game's, under an
	// active rule.
	self, resp int32
	visit      []bool
}

// open sets v to vertex i's row under the game's rule; the game must
// have been prepared for it. (It fills v in place: a view returned by
// value is copied on every read.)
func (g *PathGame) open(v *rowView, i int) {
	r := &g.Rule
	v.succ, v.qual, v.n, v.back, v.deliver = nil, nil, 0, 0, false
	v.self, v.visit = int32(i), nil
	if r.Holds != nil && !r.holds(i, g.Responder) {
		return // no row
	}
	succ, qual := g.Adjacency(i)
	v.succ, v.qual, v.n = succ, qual, len(succ)
	if r.Holds != nil {
		v.resp, v.visit = int32(g.Responder), g.visit
		if r.Deliver {
			v.n, v.deliver = len(succ)+1, true
		}
	}
}

// AppendRow appends to succ and qual vertex i's row as the solver reads
// it: the entries the rule visits, in the order it visits them. It is the
// view the row contract is checked on, outside the solver.
func (g *PathGame) AppendRow(succ []int32, qual []float64, i int) ([]int32, []float64) {
	g.prepare()
	var row rowView
	g.open(&row, i)
	for a := 0; a < row.n; a++ {
		if j, q, ok := row.at(a); ok {
			succ, qual = append(succ, j), append(qual, q)
		}
	}
	return succ, qual
}

// at returns the entry at position a, and whether the rule visits it;
// a row's positions must be read in order, each once. The delivery edge
// (i, R) comes, at quality 1, at the first position whose entry is past
// R, or after the last; every other position is the row's entry, dropped
// when it is i itself, no edge (a negative quality) or, under an active
// rule, not a successor the rule visits — the initiator, R, or a node
// that holds no row.
func (v *rowView) at(a int) (int32, float64, bool) {
	a -= v.back
	if v.deliver && (a == len(v.succ) || v.succ[a] >= v.resp) {
		v.deliver, v.back = false, 1
		return v.resp, 1, true
	}
	j, q := v.succ[a], v.qual[a]
	return j, q, j != v.self && q >= 0 && (v.visit == nil || v.visit[j])
}

// SolveStats reports what a solve did, for telemetry and tests.
type SolveStats struct {
	// Stages is the number of induction stages actually swept.
	Stages int
	// StagesSkipped is the number of stages satisfied by copy after the
	// fixed point was detected.
	StagesSkipped int
	// Converged is the first stage c such that table rows c..MaxHops are
	// pairwise bit-identical — MaxHops when the solve cannot claim more.
	Converged int
}

// Decision is the SPNE prescription at one information set: the successor
// to choose from node Node with budget hops remaining, and the utility and
// continuation quality it secures.
type Decision struct {
	Node    int
	Next    int // -1 when no feasible continuation exists (play NULL)
	Utility float64
	Quality float64 // q of the best path Node→…→R (sum of edge qualities)
}

// negInf marks "no path" in the induction table.
var negInf = math.Inf(-1)

// Solve computes the SPNE by backward induction: quality-to-go
// V(i, h) = max_j [ q(i,j) + V(j, h−1) ], with V(R, ·) = 0, and converts
// the optimal continuation quality into the stage utility. The returned
// table is indexed [hops][node]; table[h][i] is the prescription for a
// node holding the payload with h hops of budget left.
//
// This *is* the equilibrium derivation the paper defers to its technical
// report: each subgame G_l is solved exactly given optimal play in later
// stages, so the assembled profile is subgame perfect by construction (the
// one-shot deviation principle for finite games).
func (g *PathGame) Solve() [][]Decision { return g.SolveInto(nil) }

// SolveInto is Solve reusing a previously returned table as scratch when
// its dimensions still fit, avoiding the per-solve allocations on hot
// simulation paths. Every cell is overwritten, so the result is identical
// to a fresh Solve; pass nil (or a mismatched table) to allocate anew. The
// returned table aliases the argument when it was reused — callers caching
// tables must pass only buffers they own.
func (g *PathGame) SolveInto(table [][]Decision) [][]Decision {
	g.validate()
	if len(table) != g.MaxHops+1 || len(table) == 0 || len(table[0]) != g.Nodes {
		table = make([][]Decision, g.MaxHops+1)
		for h := range table {
			table[h] = make([]Decision, g.Nodes)
		}
	}
	st := g.stats()
	*st = SolveStats{Converged: g.MaxHops}
	g.prepare()
	// h = 0: only R itself has a (trivially) complete path.
	for i := 0; i < g.Nodes; i++ {
		q := negInf
		if i == g.Responder {
			q = 0
		}
		table[0][i] = Decision{Node: i, Next: -1, Utility: negInf, Quality: q}
	}
	switch {
	case g.EdgeQuality != nil:
		// Dense formulation: plain full sweeps. This path is the oracle
		// the sparse and demand-driven solvers are pinned bit-identical
		// against, so it stays free of every shortcut below.
		for h := 1; h <= g.MaxHops; h++ {
			g.sweepStage(table[h-1], table[h])
			st.Stages++
		}
	default:
		// Sparse full sweeps with the fixed-point early exit: solveCell
		// reads only the previous stage's Quality values, so once a
		// stage's Quality row is bit-equal to the one before it, every
		// later stage is the same function of the same inputs — i.e.
		// identical to the current row. Copy it down and stop.
		for h := 1; h <= g.MaxHops; h++ {
			g.sweepStage(table[h-1], table[h])
			st.Stages++
			if sameQualityRow(table[h-1], table[h]) {
				for hh := h + 1; hh <= g.MaxHops; hh++ {
					copy(table[hh], table[h])
				}
				st.StagesSkipped = g.MaxHops - h
				st.Converged = h
				break
			}
		}
	}
	return table
}

// validate panics unless the game is well-formed.
func (g *PathGame) validate() {
	if g.Nodes < 1 || g.Responder < 0 || g.Responder >= g.Nodes {
		panic(fmt.Sprintf("game: PathGame with Nodes=%d Responder=%d", g.Nodes, g.Responder))
	}
	if g.MaxHops < 1 {
		panic(fmt.Sprintf("game: PathGame with MaxHops=%d", g.MaxHops))
	}
	if (g.EdgeQuality == nil) == (g.Adjacency == nil) {
		panic("game: PathGame needs exactly one of EdgeQuality and Adjacency")
	}
	if g.EdgeQuality != nil && g.Rule.Holds != nil {
		panic("game: the row rule reads Adjacency rows; an EdgeQuality game takes none")
	}
}

func (g *PathGame) stats() *SolveStats {
	if g.Stats != nil {
		return g.Stats
	}
	return &SolveStats{}
}

// sameQualityRow reports bit-equality of two stages' Quality values —
// sufficient for the full-sweep fixed-point exit because the next full
// sweep reads nothing else from the previous stage.
func sameQualityRow(a, b []Decision) bool {
	for i := range a {
		if math.Float64bits(a[i].Quality) != math.Float64bits(b[i].Quality) {
			return false
		}
	}
	return true
}

// sweepStage fills one induction stage: cur[i] from the already-solved
// prev row.
func (g *PathGame) sweepStage(prev, cur []Decision) {
	for i := 0; i < g.Nodes; i++ {
		cur[i] = g.solveCell(prev, i)
	}
}

// solveCell computes the stage decision for vertex i given the previous
// stage's quality-to-go row. The sparse branch visits i's row as the rule
// reads it, in ascending vertex order — the same order the dense scan
// uses — so the epsilon tie-breaks, and therefore the chosen successors,
// are identical between the two formulations.
func (g *PathGame) solveCell(prev []Decision, i int) Decision {
	if i == g.Responder {
		// R holds the payload: the path is complete.
		return Decision{Node: i, Next: -1, Utility: negInf, Quality: 0}
	}
	best := Decision{Node: i, Next: -1, Utility: negInf, Quality: negInf}
	// One loop body for both formulations, so the edge rule cannot fork:
	// the sparse branch walks i's row, the dense oracle every j.
	var row rowView
	sparse, n := g.Adjacency != nil, g.Nodes
	if sparse {
		g.open(&row, i)
		n = row.n
	}
	for idx := 0; idx < n; idx++ {
		j, q := idx, 0.0
		if sparse {
			jj, qq, ok := row.at(idx)
			if !ok {
				continue
			}
			j, q = int(jj), qq
		} else if j != i {
			q = g.EdgeQuality(i, j)
		}
		if j == i || q < 0 {
			continue // self loop / no edge
		}
		cont := prev[j].Quality
		if math.IsInf(cont, -1) {
			continue // j cannot reach R in h-1 hops
		}
		pathQ := q + cont
		u := g.Pf + pathQ*g.Pr - (g.Cost.Participation + g.Cost.Transmission(i, j))
		if improves(u, pathQ, &best) {
			best = Decision{Node: i, Next: j, Utility: u, Quality: pathQ}
		}
	}
	return best
}

// improves reports whether a move of utility u and path quality pathQ
// beats best: maximise utility, break ties toward higher quality as §2.2
// prescribes, then — since candidates arrive in ascending order and only a
// strict gain replaces best — toward the lower index for determinism.
func improves(u, pathQ float64, best *Decision) bool {
	return u > best.Utility+1e-12 ||
		(math.Abs(u-best.Utility) <= 1e-12 && pathQ > best.Quality+1e-12)
}

// deliverCell is solveCell at stage 1, where V(j, 0) is finite for j = R
// only: it evaluates solveCell's expression for that one candidate, so
// the cell is bit-identical to the one a full row would yield.
func (g *PathGame) deliverCell(i int) Decision {
	if g.Rule.Holds == nil {
		panic("game: a stage-1 cell reads the delivery edge of an active row rule")
	}
	if i == g.Responder {
		return Decision{Node: i, Next: -1, Utility: negInf, Quality: 0}
	}
	best := Decision{Node: i, Next: -1, Utility: negInf, Quality: negInf}
	if q := g.deliver(i); q >= 0 {
		pathQ := q + 0 // V(R, 0)
		u := g.Pf + pathQ*g.Pr - (g.Cost.Participation + g.Cost.Transmission(i, g.Responder))
		if u > best.Utility+1e-12 {
			best = Decision{Node: i, Next: g.Responder, Utility: u, Quality: pathQ}
		}
	}
	return best
}

// penultimateCell is solveCell at stage 2, with V(j, 1) in closed form:
// 0 for j = R, and deliverCell(j)'s quality for every other successor —
// q(j, R) + V(R, 0), finite exactly when j has a delivery edge. The
// active rule gives every such j the delivery edge of i itself, so the
// cell reads it once, for i, and is bit-identical to the one solveCell
// computes over a stored stage 1.
func (g *PathGame) penultimateCell(i int) Decision {
	if i == g.Responder {
		return Decision{Node: i, Next: -1, Utility: negInf, Quality: 0}
	}
	best := Decision{Node: i, Next: -1, Utility: negInf, Quality: negInf}
	var row rowView
	g.open(&row, i)
	relay := negInf // V(j, 1) of every successor j ≠ R
	if q := g.deliver(i); q >= 0 {
		relay = q + 0 // V(R, 0)
	}
	for a := 0; a < row.n; a++ {
		j32, q, ok := row.at(a)
		if !ok {
			continue
		}
		j := int(j32)
		cont := relay
		if j == g.Responder {
			cont = 0 // V(R, 1)
		}
		if math.IsInf(cont, -1) {
			continue // j cannot reach R in one hop
		}
		pathQ := q + cont
		u := g.Pf + pathQ*g.Pr - (g.Cost.Participation + g.Cost.Transmission(i, j))
		if improves(u, pathQ, &best) {
			best = Decision{Node: i, Next: j, Utility: u, Quality: pathQ}
		}
	}
	return best
}

// SortUnique sorts xs ascending in place, drops repeated values and
// returns how many distinct values now lead xs. It is the one row
// primitive every Adjacency builder shares: candidates must be ascending
// for the induction to visit them in the dense scan's order (tie-break
// identity), and a repeated candidate must not be visited twice.
// Insertion sort, because rows hold at most d+1 entries and arrive nearly
// sorted (a neighbor list with R appended), where it beats slices.Sort.
func SortUnique(xs []int32) int {
	if len(xs) == 0 {
		return 0
	}
	for a := 1; a < len(xs); a++ {
		for j := a; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	w := 1
	for a := 1; a < len(xs); a++ {
		if xs[a] != xs[a-1] {
			xs[w] = xs[a]
			w++
		}
	}
	return w
}

// ---------------------------------------------------------------------------
// Proposition 1: expected new-edge probability.
// ---------------------------------------------------------------------------

// RandomRoutingNewEdgeLB returns the paper's lower bound on E[X] — the
// probability that an edge of the k-th connection is new (not in
// ⋃_{i<k} π^i) — under random routing: 1 − k/N.
func RandomRoutingNewEdgeLB(k, n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("game: RandomRoutingNewEdgeLB(n=%d)", n))
	}
	lb := 1 - float64(k)/float64(n)
	if lb < 0 {
		return 0
	}
	return lb
}

// UtilityRoutingNewEdge returns the paper's expression for E[X] under
// utility-based routing: ∏_{i<k} (1 − p_i), where p_i is the probability
// that an edge of π^i is available for reuse in π^k. As availability
// weights w_a > 0 drive p_i → 1, the product → 0: reformations vanish.
func UtilityRoutingNewEdge(reuseProbs []float64) float64 {
	e := 1.0
	for _, p := range reuseProbs {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("game: reuse probability %g out of range", p))
		}
		e *= 1 - p
	}
	return e
}
