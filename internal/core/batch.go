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

	k        int // connections completed so far
	fset     *quality.ForwarderSet
	forwards map[overlay.NodeID]int // m per forwarder
	edges    map[edge]struct{}      // union of directed edges over π¹…π^k

	newEdges   int // edges that were not present in earlier connections
	totalEdges int
	declines   int // forwarding requests declined (NULL strategy plays)

	// fixedPath is the FixedPath baseline's current source-routed relay
	// sequence (excluding endpoints); rebuilt when a member goes offline.
	fixedPath []overlay.NodeID

	// histQual counts quality-relevant history mutations of this batch:
	// recorded rows whose successor is not R (delivery rows never feed a
	// scored edge), plus any row at all when capacity eviction is active.
	// Together with the overlay and probe versions it stamps the batch's
	// stage game below, mirroring the transport router's cache semantics:
	// a solve is reused only while every input it consumed is unchanged.
	histQual uint64

	// histNodes is the set of nodes holding quality-relevant history for
	// this batch — exactly the nodes whose scorer output can depend on
	// the history version or the connection index k (everything else has
	// selectivity 0 whatever k is). Only their stage-game rows are scored
	// through the scorer; every other row is the system's base row.
	histNodes map[overlay.NodeID]struct{}

	// spneStamp is the version vector of the batch's last Utility Model II
	// solve (see spneTable).
	spneStamp spneStamp

	// scorers caches the batch's per-node edge-quality scorers: the
	// routing loop asks for one per hop. They live and die with the batch
	// (Close drops them), so a long run holds scorers for its live batches
	// only.
	scorers map[overlay.NodeID]*quality.Scorer
	closed  bool

	// cands and scored are per-hop scratch buffers (candidate filter and
	// Model-I utility ranking), reused to keep the routing loop
	// allocation-free.
	cands  []overlay.NodeID
	scored []scoredCand
}

// spneStamp records the version vector a stage game was solved under: the
// overlay structural version, the probe-set estimate version, the batch's
// quality-relevant history version, and the connection index (left 0
// while the batch has no quality-relevant history, because every
// selectivity is then 0 whatever k is).
type spneStamp struct {
	valid bool
	net   uint64
	probe uint64
	hist  uint64
	k     int
}

// scoredCand is one Model-I candidate with its utility and edge quality.
type scoredCand struct {
	id overlay.NodeID
	u  float64
	q  float64
}

// scoredLess orders Model-I candidates: descending utility, then
// descending edge quality (the paper's tie-break), then ascending ID for
// determinism. Distinct IDs make it a strict total order.
func scoredLess(a, c scoredCand) bool {
	if a.u != c.u {
		return a.u > c.u
	}
	if a.q != c.q {
		return a.q > c.q
	}
	return a.id < c.id
}

type edge struct{ from, to overlay.NodeID }

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
	return &Batch{
		ID:        s.batches,
		Initiator: initiator,
		Responder: responder,
		Contract:  c,
		Strategy:  strat,
		sys:       s,
		fset:      quality.NewForwarderSet(),
		forwards:  make(map[overlay.NodeID]int),
		edges:     make(map[edge]struct{}),
	}, nil
}

// Connections returns the number of completed connections k.
func (b *Batch) Connections() int { return b.k }

// ForwarderSet returns the batch's union forwarder set tracker.
func (b *Batch) ForwarderSet() *quality.ForwarderSet { return b.fset }

// Forwards returns forwarder id's forwarding-instance count m.
func (b *Batch) Forwards(id overlay.NodeID) int { return b.forwards[id] }

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
	var spne [][]game.Decision
	if b.Strategy == UtilityII {
		spne = b.spneTable(b.Initiator, budget)
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
		var next overlay.NodeID
		var q float64
		if deliver {
			next, q = b.Responder, 1
		} else {
			next, q = b.chooseNext(cur, pred, remaining, spne, res)
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
	sc := b.scorer(b.Initiator)
	for _, next := range b.fixedPath {
		b.recordHop(res, cur, pred, next, sc.Edge(next, b.Responder, b.k))
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

// chooseNext picks cur's successor for the current connection, honouring
// the holder's strategy, candidate acceptance, and the hop budget. It
// returns the responder when no forwarding candidate is available.
func (b *Batch) chooseNext(cur, pred overlay.NodeID, remaining int, spne [][]game.Decision, res *PathResult) (overlay.NodeID, float64) {
	holderIsMalicious := b.sys.Net.Node(cur).Malicious
	strat := b.Strategy
	if holderIsMalicious {
		strat = Random // adversaries route randomly, whatever the contract says
	}

	candidates := b.candidates(cur, pred)
	if len(candidates) == 0 {
		return b.Responder, 1
	}

	switch strat {
	case Random:
		// Uniform choice; skip decliners by resampling without
		// replacement. candidates is this batch's scratch buffer and is
		// not read again this hop, so the shuffle can run in place.
		shuffleIDs(b.sys.rng, candidates)
		for _, v := range candidates {
			if b.sys.accepts(v, b.Contract) {
				return v, b.scorer(cur).Edge(v, b.Responder, b.k)
			}
			res.Declined++
			b.declines++
		}
		return b.Responder, 1

	case UtilityII:
		if spne != nil {
			// (cur, remaining) lies in the cone solved at connection
			// start: every hop follows an edge of the holder's row.
			d := spne[remaining][cur]
			// The SPNE table is computed over walks; refuse an immediate
			// return to the predecessor (A→B→A cycling) and fall back to
			// the local rule instead, like the candidate filter does for
			// the other strategies.
			if d.Next >= 0 && overlay.NodeID(d.Next) != pred {
				next := overlay.NodeID(d.Next)
				if next == b.Responder {
					return b.Responder, 1
				}
				if b.sys.accepts(next, b.Contract) {
					return next, b.scorer(cur).Edge(next, b.Responder, b.k)
				}
				res.Declined++
				b.declines++
				// SPNE target declined: fall through to Model I's local
				// choice among the remaining candidates.
			}
		}
		fallthrough

	default: // UtilityI
		return b.chooseUtilityI(cur, pred, candidates, res)
	}
}

// chooseUtilityI implements Model I: evaluate U(cur, v) for every
// candidate, walk them in descending utility (ties broken by higher edge
// quality, then lower ID for determinism), and return the first acceptor.
func (b *Batch) chooseUtilityI(cur, pred overlay.NodeID, candidates []overlay.NodeID, res *PathResult) (overlay.NodeID, float64) {
	sc := b.scorer(cur)
	scoredCands := b.scored[:0]
	for _, v := range candidates {
		var q float64
		if b.sys.cfg.PositionAware {
			q = sc.EdgeAt(pred, v, b.Responder, b.k)
		} else {
			q = sc.Edge(v, b.Responder, b.k)
		}
		u := b.Contract.Pf + q*b.Contract.Pr -
			(b.sys.cfg.Cost.Participation + b.sys.cfg.Cost.Transmission(int(cur), int(v)))
		scoredCands = append(scoredCands, scoredCand{id: v, u: u, q: q})
	}
	b.scored = scoredCands
	// Insertion sort on (utility desc, quality desc — the paper's
	// tie-break — then ID asc). The ordering is a strict total order, so
	// this matches what any correct sort produces, without sort.Slice's
	// closure allocation on a hot per-hop path.
	for i := 1; i < len(scoredCands); i++ {
		for j := i; j > 0 && scoredLess(scoredCands[j], scoredCands[j-1]); j-- {
			scoredCands[j], scoredCands[j-1] = scoredCands[j-1], scoredCands[j]
		}
	}
	// §5 availability-attack countermeasure: jitter the argmax across the
	// top-K candidates so an always-online adversary cannot deterministically
	// park itself on the stable path.
	if k := b.sys.cfg.TopKJitter; k > 1 && len(scoredCands) > 1 {
		if k > len(scoredCands) {
			k = len(scoredCands)
		}
		pick := b.sys.rng.Intn(k)
		scoredCands[0], scoredCands[pick] = scoredCands[pick], scoredCands[0]
	}
	for _, s := range scoredCands {
		if b.sys.accepts(s.id, b.Contract) {
			return s.id, s.q
		}
		res.Declined++
		b.declines++
	}
	return b.Responder, 1
}

// candidates returns cur's viable forwarding candidates: online neighbors
// other than the immediate predecessor, the responder and the initiator.
// (R is reached by explicit delivery; routing back through I would reveal
// nothing useful and unbalance the length normalisation.)
// The returned slice is the batch's reusable scratch buffer: it is valid
// only until the next candidates call.
func (b *Batch) candidates(cur, pred overlay.NodeID) []overlay.NodeID {
	// Time-only bracket: this runs once per hop and the body is O(d), so
	// the full alloc-sampling bracket would dwarf what it measures.
	ph := b.sys.Prof.StartTimer(telemetry.PhaseOverlayCandidates)
	defer ph.End()
	out := b.cands[:0]
	for _, v := range b.sys.Net.Node(cur).Neighbors {
		if v == pred || v == b.Responder || v == b.Initiator || v == cur {
			continue
		}
		if !b.sys.Net.Online(v) {
			continue
		}
		out = append(out, v)
	}
	b.cands = out
	return out
}

// recordHop updates history, forwarding counts and edge bookkeeping for
// the traversal cur→next.
func (b *Batch) recordHop(res *PathResult, cur, pred, next overlay.NodeID, q float64) {
	res.Nodes = append(res.Nodes, next)
	res.EdgeQualities = append(res.EdgeQualities, q)

	// History: every node on the path (including I) records the hop it
	// routed, keyed by this connection, with its predecessor for position
	// disambiguation (§2.3, Table 1).
	b.sys.Hist.For(cur, b.ID).Record(history.ConnID(b.k), pred, next)
	// A row with successor R never feeds a scored edge (candidates exclude
	// R and the delivery edge is fixed at 1), so it leaves cached SPNE
	// qualities exact — unless capacity eviction is on, when recording it
	// can push a quality-relevant row out.
	if next != b.Responder || b.sys.cfg.HistoryCapacity > 0 {
		b.histQual++
		if b.histNodes == nil {
			b.histNodes = make(map[overlay.NodeID]struct{})
		}
		b.histNodes[cur] = struct{}{}
	}

	// Forwarding instances are credited to interior nodes only.
	if cur != b.Initiator {
		b.forwards[cur]++
	}

	e := edge{cur, next}
	b.totalEdges++
	if _, seen := b.edges[e]; !seen {
		// Only edges encountered in *earlier* connections count as old;
		// an edge first seen earlier in this same connection is still new
		// exactly once.
		res.NewEdges++
		b.newEdges++
		b.edges[e] = struct{}{}
	}
}

// scorer returns node's edge-quality scorer for this batch. The cached
// entry is revalidated against the current profile and estimator pointers
// — both are stable for a live batch, and a mismatch (the node's first
// recorded row materialising its profile) rebuilds. The profile is
// Peeked, not created: a node that never forwarded scores with a nil
// profile (selectivity 0, exactly what an empty profile yields).
func (b *Batch) scorer(node overlay.NodeID) *quality.Scorer {
	h := b.sys.Hist.Peek(node, b.ID)
	p := b.sys.Probes.For(node)
	if sc := b.scorers[node]; sc != nil && sc.History == h && sc.Probe == p {
		return sc
	}
	sc := quality.NewScorer(b.sys.cfg.Weights, h, p)
	if b.scorers == nil {
		b.scorers = make(map[overlay.NodeID]*quality.Scorer)
	}
	b.scorers[node] = sc
	return sc
}

// spneTable returns the Utility Model II prescription table with every
// cell the play from (start, hops) can reach solved: the L-stage path
// game over the current online overlay, where each online node i ≠ R has
// edges to its online neighbors (other than I and R) with q from i's own
// scorer, plus the delivery edge (i, R) with quality 1.
//
// The solve is demand-driven (game.SolveFrom): only the cone of (start,
// hops) is computed, over rows built for cone nodes only, into the
// system's one memo. The memo is reused — a larger budget merely extends
// it — while this batch solved last and its stamp is fresh, i.e. every
// input the game consumed (overlay topology, probe estimates, this
// batch's quality-relevant history and, when history matters, the
// connection index) is unchanged; otherwise it is reset. Cells outside
// the solved cones hold stale storage and must not be read.
//
// Estimator creation is the one RNG-consuming side effect of a solve, so
// it is not left to the lazy rows: whenever the batch's stamp went stale
// every online node other than R gets its estimator, in ascending ID
// order — and not when the memo merely changed hands between interleaved
// batches (the stamp is then fresh, and an unchanged overlay version means
// the pass that stamped it already covered the same online set).
func (b *Batch) spneTable(start overlay.NodeID, hops int) [][]game.Decision {
	s := b.sys
	now := spneStamp{valid: true, net: s.Net.Version(), probe: s.Probes.Version(), hist: b.histQual}
	if b.histQual != 0 {
		now.k = b.k
	}
	fresh := b.spneStamp == now
	if !fresh {
		s.createEstimators(b.Responder)
		b.spneStamp = now
	}
	g := &game.PathGame{
		Nodes:     s.Net.Len(),
		Responder: int(b.Responder),
		Pf:        b.Contract.Pf,
		Pr:        b.Contract.Pr,
		Cost:      s.cfg.Cost,
		MaxHops:   s.cfg.MaxHops,
	}
	reuse := fresh && s.memoOwner == b.ID
	if reuse {
		s.solverStats.Incremental++
		s.mMemoReused.Inc()
	} else {
		if s.memoOwner != 0 {
			s.solverStats.Fallbacks++
		}
		s.solverStats.Solves++
		s.mMemoReset.Inc()
		s.memoOwner = b.ID
	}
	if s.forceDense {
		// Retained dense oracle (equivalence tests): the full table by an
		// O(n²) scan through the map-free closure — the reference the
		// demand-driven cells are pinned bit-identical against.
		if !reuse {
			g.EdgeQuality = func(i, j int) float64 {
				return b.stageEdgeQuality(overlay.NodeID(i), overlay.NodeID(j))
			}
			s.dense = g.SolveInto(s.dense)
		}
		return s.dense
	}
	ph := s.Prof.Start(telemetry.PhaseSolveInduction)
	if !reuse {
		s.resetMemo(g.Nodes)
	}
	g.Adjacency = b.row
	cells := g.SolveFrom(&s.memo, int(start), hops)
	ph.End()
	s.solverStats.FrontierCells += cells
	s.mCells.Add(int64(cells))
	return s.memo.Table()
}

// row is the stage game's Adjacency for the batch that owns the memo:
// node i's candidate successors, ascending, with their edge qualities.
// Rows are built on first use and kept until the memo is reset, so a
// solve touches only the nodes of its cone. A row is the node's base row
// (System.baseRow: batch-independent topology and availability) minus I,
// R and offline candidates, with the delivery edge (i, R) = 1 spliced in
// at R's ascending position — the sparse induction then visits successors
// in exactly the order a dense scan over j would, so every epsilon
// tie-break lands identically. Selectivity is non-zero only on the edges
// of nodes holding quality-relevant history, so only those rows are
// rescored through the batch's scorer. R and offline nodes have no row.
func (b *Batch) row(i int) ([]int32, []float64) {
	s := b.sys
	if !s.rowBuilt[i] {
		s.rowBuilt[i] = true
		lo := len(s.rowSucc)
		if id := overlay.NodeID(i); id != b.Responder && s.Net.Online(id) {
			base := s.baseRow(id)
			var sc *quality.Scorer
			if _, ok := b.histNodes[id]; ok {
				sc = b.scorer(id)
			}
			deliver := int32(b.Responder)
			delivered := false
			for a, j := range base.succ {
				if !delivered && j >= deliver {
					s.addEdge(deliver, 1)
					delivered = true
				}
				v := overlay.NodeID(j)
				if v == b.Responder || v == b.Initiator || !s.Net.Online(v) {
					continue
				}
				q := base.qual[a]
				if sc != nil {
					q = sc.Edge(v, b.Responder, b.k)
				}
				s.addEdge(j, q)
			}
			if !delivered {
				s.addEdge(deliver, 1)
			}
		}
		s.rowOff[i], s.rowLen[i] = int32(lo), int32(len(s.rowSucc)-lo)
	}
	lo, hi := s.rowOff[i], s.rowOff[i]+s.rowLen[i]
	return s.rowSucc[lo:hi], s.rowQual[lo:hi]
}

// stageEdgeQuality returns q(i, j) for the stage game, or -1 when the edge
// does not exist.
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
	return b.scorer(i).Edge(j, b.Responder, b.k)
}

// shuffleIDs is a tiny Fisher-Yates over node IDs using the system RNG.
func shuffleIDs(rng interface{ Intn(int) int }, xs []overlay.NodeID) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
