package core

import (
	"fmt"

	"p2panon/internal/game"
	"p2panon/internal/history"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
)

// Batch is one (I, R) pair's set of recurring connections π = {π¹ … π^k}
// under a single contract — the unit over which the forwarder set, the
// routing-benefit share and the payoffs are defined.
type Batch struct {
	ID        int
	Initiator overlay.NodeID
	Responder overlay.NodeID
	Contract  Contract
	Strategy  Strategy // routing strategy used by good nodes

	sys *System

	k    int                   // connections completed so far
	fset *quality.ForwarderSet // ‖π‖ and each forwarder's m
	// hist is the batch's routing history over π¹…π^k, σ's input: made
	// at the first recorded hop, dropped by Close.
	hist *history.Table

	newEdges   int // edges that were not present in earlier connections
	totalEdges int
	declines   int // forwarding requests declined (NULL strategy plays)

	// fixedPath is the FixedPath baseline's current source-routed relay
	// sequence (excluding endpoints); rebuilt when a member goes offline.
	fixedPath []overlay.NodeID

	// histNodes is the set of nodes holding quality-relevant history for
	// this batch — exactly the nodes whose edge qualities can depend on
	// the history or the connection index k (everything else has
	// selectivity 0 whatever k is). Only their stage-game rows are
	// rescored; every other row is the system's base row.
	histNodes map[overlay.NodeID]struct{}

	closed bool

	// rule is the batch's instance of the shared routing rule, with its
	// per-hop scratch; fill is row, bound once so that handing it to the
	// system (System.fill) on a memo reset allocates nothing.
	rule Rule
	fill func(i int)
}

// NewBatch registers a new batch on the system. Initiator and responder
// must be distinct existing nodes.
func (s *System) NewBatch(initiator, responder overlay.NodeID, c Contract, strat Strategy) (*Batch, error) {
	if !s.Net.Exists(initiator) || !s.Net.Exists(responder) {
		return nil, fmt.Errorf("core: unknown endpoint (I=%d, R=%d)", initiator, responder)
	}
	if initiator == responder {
		return nil, fmt.Errorf("core: initiator and responder are both node %d", initiator)
	}
	if c.Pf < 0 || c.Pr < 0 {
		return nil, fmt.Errorf("core: negative contract %+v", c)
	}
	s.batches++
	s.open++
	b := &Batch{
		ID:        s.batches,
		Initiator: initiator,
		Responder: responder,
		Contract:  c,
		Strategy:  strat,
		sys:       s,
		fset:      quality.NewForwarderSet(),
	}
	b.rule = Rule{View: b, Contract: c, Cost: s.cfg.Cost, TopKJitter: s.cfg.TopKJitter, Rng: s.rng}
	b.fill = b.row
	return b, nil
}

// Connections returns the number of completed connections k.
func (b *Batch) Connections() int { return b.k }

// ForwarderSet returns the batch's union forwarder set tracker.
func (b *Batch) ForwarderSet() *quality.ForwarderSet { return b.fset }

// Forwards returns forwarder id's forwarding-instance count m.
func (b *Batch) Forwards(id overlay.NodeID) int { return b.fset.Forwards(id) }

// History returns the batch's routing history: nil before its first hop
// and after Close.
func (b *Batch) History() *history.Table { return b.hist }

// Declines returns how many forwarding requests were declined so far.
func (b *Batch) Declines() int { return b.declines }

// NewEdgeRate returns the empirical E[X] of Proposition 1: the fraction of
// traversed edges that were new (absent from all earlier connections of
// the batch). It returns 0 before any connection runs.
func (b *Batch) NewEdgeRate() float64 {
	if b.totalEdges == 0 {
		return 0
	}
	return float64(b.newEdges) / float64(b.totalEdges)
}

// PathResult describes one completed connection π^k.
type PathResult struct {
	Conn int // 1-based connection index within the batch
	// Nodes is the full node sequence I, f₁, …, f_m, R.
	Nodes []overlay.NodeID
	// EdgeQualities holds q for each traversed edge as evaluated by its
	// tail at selection time; the final (delivery) edge is 1.
	EdgeQualities []float64
	// NewEdges counts edges of this connection absent from all previous
	// connections of the batch (Prop. 1's X = 1 events).
	NewEdges int
	// Declined counts nodes that refused to forward during formation.
	Declined int
	// Direct reports whether the connection fell back to I→R delivery
	// with no forwarders at all.
	Direct bool
}

// HopLen returns the connection's length in edges.
func (p *PathResult) HopLen() int { return len(p.Nodes) - 1 }

// Forwarders returns the interior nodes (excluding I and R) in order,
// with duplicates when a node held the payload twice.
func (p *PathResult) Forwarders() []overlay.NodeID {
	if len(p.Nodes) <= 2 {
		return nil
	}
	return p.Nodes[1 : len(p.Nodes)-1]
}

// RunConnection forms the next connection π^{k+1} of the batch and updates
// all batch accounting. It never fails outright: if every neighbor
// declines or is offline, the initiator delivers directly to R (a
// forwarder-less connection), which models Crowds' always-available direct
// submission.
func (b *Batch) RunConnection() *PathResult {
	b.k++
	res := &PathResult{Conn: b.k}
	budget := b.sys.cfg.MinHops
	if span := b.sys.cfg.MaxHops - b.sys.cfg.MinHops; span > 0 {
		budget += b.sys.rng.Intn(span + 1)
	}

	if b.Strategy == FixedPath {
		b.runFixedPath(res, budget)
		res.Direct = len(res.Nodes) == 2
		b.fset.AddPath(res.Forwarders(), res.HopLen())
		return res
	}

	// Utility Model II: solve the subgame the play from (I, budget) can
	// reach; every good holder then plays its prescription. The solve is
	// rooted here, before the first hop is recorded: rows read history, so
	// the walk's own hops must never leak into the game it is playing.
	spne := b.Strategy == UtilityII
	if spne {
		b.spneTable(b.Initiator, budget)
	}

	cur := b.Initiator
	pred := overlay.None
	res.Nodes = append(res.Nodes, cur)

	// route.walk covers the hop loop only; the SPNE solve above reports
	// under solve.induction.
	walk := b.sys.Prof.Start(telemetry.PhaseRouteWalk)
	defer walk.End()

	for hop := 0; ; hop++ {
		remaining := budget - hop
		deliver := remaining <= 0
		// Crowds-coin termination (§2.2): interior holders flip p_f; the
		// initiator always forwards at least once when it can. MaxHops
		// still caps via the budget above.
		if !deliver && hop > 0 && b.sys.cfg.Termination == CrowdsCoin &&
			!b.sys.rng.Bernoulli(b.sys.cfg.ForwardProb) {
			deliver = true
		}
		next, q, declined := b.Responder, 1.0, 0
		if !deliver {
			next, q, declined = b.chooseNext(cur, pred, remaining, spne)
			res.Declined += declined
			b.declines += declined
		}
		b.recordHop(res, cur, pred, next, q)
		if next == b.Responder {
			break
		}
		pred, cur = cur, next
	}
	res.Direct = len(res.Nodes) == 2
	b.fset.AddPath(res.Forwarders(), res.HopLen())
	return res
}

// runFixedPath implements the FixedPath baseline: replay the stored
// source-routed path if every member is still online, otherwise pick a
// fresh random path (a reformation) and use that.
func (b *Batch) runFixedPath(res *PathResult, budget int) {
	valid := len(b.fixedPath) > 0
	for _, id := range b.fixedPath {
		if !b.sys.Net.Online(id) {
			valid = false
			break
		}
	}
	if !valid {
		b.fixedPath = b.buildSourcePath(budget)
	}
	cur := b.Initiator
	pred := overlay.None
	res.Nodes = append(res.Nodes, cur)
	for _, next := range b.fixedPath {
		// The baseline scores every hop as the initiator sees it.
		b.recordHop(res, cur, pred, next, b.Quality(b.Initiator, overlay.None, next))
		pred, cur = cur, next
	}
	b.recordHop(res, cur, pred, b.Responder, 1)
}

// buildSourcePath picks `budget` distinct random online relays, excluding
// the endpoints — the initiator-knows-the-path model of [13].
func (b *Batch) buildSourcePath(budget int) []overlay.NodeID {
	var pool []overlay.NodeID
	for _, id := range b.sys.Net.OnlineIDs() {
		if id != b.Initiator && id != b.Responder {
			pool = append(pool, id)
		}
	}
	if budget > len(pool) {
		budget = len(pool)
	}
	shuffleIDs(b.sys.rng, pool)
	return append([]overlay.NodeID(nil), pool[:budget]...)
}

// chooseNext picks cur's successor for the current connection. Good
// holders route by the shared rule (Route), a Model-II holder with its
// SPNE prescription; the Random strategy and malicious holders pick
// uniformly among the same candidates. It returns the responder when no
// candidate accepts, and counts the requests declined on the way.
func (b *Batch) chooseNext(cur, pred overlay.NodeID, remaining int, spne bool) (overlay.NodeID, float64, int) {
	h := Hop{Cur: cur, Pred: pred, Initiator: b.Initiator, Responder: b.Responder, Prescribed: overlay.None}
	node := b.sys.Net.Node(cur)
	if b.Strategy == Random || node.Malicious {
		// Adversaries route randomly, whatever the contract says.
		return b.chooseRandom(h, node.Neighbors)
	}
	if spne {
		h.Prescribed = b.prescribed(cur, remaining)
	}
	b.rule.Prof = b.sys.Prof // a caller may swap the profiler between hops
	return Route(&b.rule, h, node.Neighbors, b.sys.Net.Up())
}

// chooseRandom is the Random strategy: a uniform choice among the
// candidates, skipping decliners by resampling without replacement.
func (b *Batch) chooseRandom(h Hop, nbrs []overlay.NodeID) (overlay.NodeID, float64, int) {
	ph := b.sys.Prof.StartTimer(telemetry.PhaseOverlayCandidates)
	cands := Candidates(b.rule.cands[:0], h, nbrs, b.sys.Net.Up())
	ph.End()
	b.rule.cands = cands
	shuffleIDs(b.sys.rng, cands)
	for declined, v := range cands {
		if b.Accepts(v) {
			return v, b.Quality(h.Cur, overlay.None, v), declined
		}
	}
	return b.Responder, 1, len(cands)
}

// Quality implements View: q(cur, v) = w_s·σ + w_a·α for the k-th
// connection, σ from the batch's history — position-aware when
// Config.PositionAware and pred is a node — and α from cur's estimator.
// The delivery edge has quality 1, the paper's last-edge rule.
func (b *Batch) Quality(cur, pred, v overlay.NodeID) float64 {
	if v == b.Responder {
		return 1
	}
	var sigma float64
	if b.sys.cfg.PositionAware && pred != overlay.None {
		sigma = b.hist.SelectivityAt(pred, cur, v, b.k)
	} else {
		sigma = b.hist.Selectivity(cur, v, b.k)
	}
	return b.sys.cfg.Weights.Edge(sigma, b.sys.Probes.For(cur).Availability(v))
}

// Accepts implements View: a good node v forwards under the batch's
// contract when Prop. 3's participation condition P_f > C^p + C^t holds
// for it, with C^t its cheapest online link (a rational participant
// forwards on its cheapest acceptable link); malicious nodes always
// accept.
func (b *Batch) Accepts(v overlay.NodeID) bool {
	s := b.sys
	if s.Net.Node(v).Malicious {
		return true
	}
	return game.ForwardingDominant(b.Contract.Pf, s.cfg.Cost.Participation, s.minTransmission(v))
}

// recordHop updates history and edge bookkeeping for the traversal
// cur→next. Forwarding instances are credited by the forwarder set when
// the connection ends: its Forwarders are every holder but I, since
// candidates never include I and a fixed path's relays exclude the
// endpoints.
func (b *Batch) recordHop(res *PathResult, cur, pred, next overlay.NodeID, q float64) {
	res.Nodes = append(res.Nodes, next)
	res.EdgeQualities = append(res.EdgeQualities, q)

	// History: every node on the path (including I) records the hop it
	// routed, keyed by this connection, with its predecessor for position
	// disambiguation (§2.3, Table 1). An edge no earlier hop of the batch
	// used is new (Prop. 1's X = 1), so one a connection traverses twice
	// counts as new once.
	if b.hist == nil {
		b.hist = history.New(b.sys.cfg.PositionAware)
	}
	b.totalEdges++
	if b.hist.Record(b.k, pred, cur, next) {
		res.NewEdges++
		b.newEdges++
	}
	// A row with successor R never feeds a scored edge (candidates exclude
	// R and the delivery edge is fixed at 1), so it gives its holder no σ
	// overlay.
	if next != b.Responder {
		if b.histNodes == nil {
			b.histNodes = make(map[overlay.NodeID]struct{})
		}
		b.histNodes[cur] = struct{}{}
	}
}

// spneTable solves every cell of the Utility Model II stage game the play
// from (start, hops) can reach, for prescribed to read: the L-stage path
// game over the current online overlay, where each online node i ≠ R has
// edges to its online neighbors (other than I and R) with q from i's own
// history rows and estimator, plus the delivery edge (i, R) with quality 1.
//
// The solve is demand-driven (game.SolveFrom): only the cone of (start,
// hops) is computed, over rows built for cone nodes only, into the
// system's one memo, which every solve resets first.
//
// Estimator creation is the one RNG-consuming side effect of a solve, so
// it is not left to the lazy rows: before every solve each online node
// other than R gets its estimator, in ascending ID order.
func (b *Batch) spneTable(start overlay.NodeID, hops int) {
	s := b.sys
	s.createEstimators(b.Responder)
	g := &s.stage
	g.Nodes, g.Responder, g.Pf, g.Pr = s.Net.Len(), int(b.Responder), b.Contract.Pf, b.Contract.Pr
	if s.fill != nil { // set by resetMemo, cleared by releaseSolve
		s.solverStats.Fallbacks++
	}
	s.solverStats.Solves++
	ph := s.Prof.Start(telemetry.PhaseSolveInduction)
	s.resetMemo(b)
	cells := g.SolveFrom(&s.memo, int(start), hops)
	ph.End()
	s.solverStats.FrontierCells += cells
	s.mCells.Add(int64(cells))
}

// prescribed returns the SPNE successor of cur with hops of budget left,
// read through game.PathGame.Cell from the game spneTable last solved for
// the batch. (cur, hops) lies in the cone solved at connection start:
// every hop follows an edge of the holder's row.
func (b *Batch) prescribed(cur overlay.NodeID, hops int) overlay.NodeID {
	s := b.sys
	d, _ := s.stage.Cell(&s.memo, hops, int(cur))
	return overlay.NodeID(d.Next)
}

// row sets node i's stage-game row for the batch that solved last
// (System.fill) on its first use, kept until the memo is reset, so a
// solve touches only the nodes of its cone. A row is the node's base row
// (System.baseRow: batch-independent topology and availability), read in
// place; the solver's rule (game.RowRule, set by resetMemo) drops R, the
// initiator and offline nodes from it and adds the delivery edge.
// Selectivity is non-zero only on the edges of nodes holding
// quality-relevant history, so only those rows get an overlay, rescored
// through Quality.
func (b *Batch) row(i int) {
	s := b.sys
	if s.rowAt[i] != rowHolder {
		s.rowAt[i] = rowBase
		return
	}
	off, n := s.baseRow(overlay.NodeID(i))
	lo := len(s.overlay)
	for _, j := range s.base.succ[off : off+n] {
		s.overlay = append(s.overlay, b.Quality(overlay.NodeID(i), overlay.None, overlay.NodeID(j)))
	}
	s.rowAt[i] = int32(lo + 1)
}

// shuffleIDs is a tiny Fisher-Yates over node IDs using the system RNG.
func shuffleIDs(rng interface{ Intn(int) int }, xs []overlay.NodeID) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
