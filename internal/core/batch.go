package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
	// Together with the overlay and probe versions it stamps the solved
	// SPNE table below, mirroring the transport router's cache semantics:
	// a table is reused only while every input it consumed is unchanged.
	histQual uint64

	// histNodes is the set of nodes holding quality-relevant history for
	// this batch — exactly the nodes whose scorer output can depend on
	// the history version or the connection index k (everything else has
	// selectivity 0 whatever k is). A warm re-solve marks them dirty when
	// histQual or k moved instead of invalidating the whole table.
	histNodes map[overlay.NodeID]struct{}

	// spne is the batch's cached Utility Model II prescription table,
	// solved to the full MaxHops budget (rows for h ≤ budget are
	// budget-independent, so one table serves every drawn budget). Also
	// reused as the solve scratch buffer on invalidation.
	spne      [][]game.Decision
	spneStamp spneStamp

	// cands and scored are per-hop scratch buffers (candidate filter and
	// Model-I utility ranking), reused to keep the routing loop
	// allocation-free.
	cands  []overlay.NodeID
	scored []scoredCand
}

// spneStamp records the version vector a cached SPNE table was solved
// under: the overlay structural version, the probe-set estimate version,
// the batch's quality-relevant history version, and the connection index
// (irrelevant while the batch has no quality-relevant history, because
// every selectivity is then 0 whatever k is).
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

	// Utility Model II: fetch the stage-game SPNE for this connection;
	// every good holder then plays its prescription. The solved table is
	// cached batch-scoped and reused while its inputs are unchanged.
	var spne [][]game.Decision
	if b.Strategy == UtilityII {
		spne = b.spneTable()
	}

	cur := b.Initiator
	pred := overlay.None
	res.Nodes = append(res.Nodes, cur)

	// route.walk covers the hop loop only; the SPNE solve above reports
	// under the solve.* phases (a cache hit costs nothing to attribute).
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
	sc := b.sys.scorer(b.Initiator, b.ID)
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
				return v, b.sys.scorer(cur, b.ID).Edge(v, b.Responder, b.k)
			}
			res.Declined++
			b.declines++
		}
		return b.Responder, 1

	case UtilityII:
		if spne != nil && int(cur) < len(spne[remaining]) {
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
					return next, b.sys.scorer(cur, b.ID).Edge(next, b.Responder, b.k)
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
	sc := b.sys.scorer(cur, b.ID)
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

// spneTable returns the SPNE prescription table for the current
// connection, reusing the batch's cached solve when every input it
// consumed — overlay topology, probe estimates, this batch's
// quality-relevant history and (when history matters) the connection
// index — is unchanged. An invalidated table is first offered to the
// incremental re-solver, which patches only what the recorded changes
// can reach; when that cannot run (journal gap, population change,
// oversized dirty set, scratch owned by another batch) the previous
// table is recycled as scratch for a full solve.
func (b *Batch) spneTable() [][]game.Decision {
	netV, probeV := b.sys.Net.Version(), b.sys.Probes.Version()
	st := b.spneStamp
	if st.valid && st.net == netV && st.probe == probeV && st.hist == b.histQual &&
		(b.histQual == 0 || st.k == b.k) {
		return b.spne
	}
	if st.valid && !b.sys.forceDense {
		if b.resolveIncremental(st, netV, probeV) {
			b.sys.mIncHit.Inc()
			b.spneStamp = spneStamp{valid: true, net: netV, probe: probeV, hist: b.histQual, k: b.k}
			return b.spne
		}
		// A valid solve existed but could not be patched: count the miss
		// (first-time solves never reach here).
		b.sys.mIncMiss.Inc()
		b.sys.solverStats.Fallbacks++
	}
	b.spne = b.solveStageGame(b.spne)
	b.spneStamp = spneStamp{valid: true, net: netV, probe: probeV, hist: b.histQual, k: b.k}
	return b.spne
}

// solveStageGame builds and solves the L-stage path game for Utility Model
// II over the current online overlay: vertices are all node IDs (offline
// ones get no outgoing edges), each online node i has edges to its online
// neighbors with q from i's own scorer, and every online node has the
// delivery edge (i, R) with quality 1.
//
// The game is neighbor-local — a node only ever scores its candidate set
// D(s) of size ≤ d — so the edge qualities are materialised as sparse
// per-node candidate rows (O(N·d) memory and scorer calls) rather than
// the dense n×n matrix earlier revisions used, which walled the engine
// off around N ≈ 10⁴. Candidate rows are sorted ascending, so the sparse
// induction visits successors in exactly the order the dense scan did and
// every epsilon tie-break lands identically. The game is solved to the
// full configured MaxHops so the table serves any drawn per-connection
// budget (rows for h ≤ budget are identical either way — backward
// induction fills bottom-up).
func (b *Batch) solveStageGame(scratch [][]game.Decision) [][]game.Decision {
	n := b.sys.Net.Len()
	g := &game.PathGame{
		Nodes:     n,
		Responder: int(b.Responder),
		Pf:        b.Contract.Pf,
		Pr:        b.Contract.Pr,
		Cost:      b.sys.cfg.Cost,
		MaxHops:   b.sys.cfg.MaxHops,
		Workers:   b.sys.cfg.SolveWorkers,
	}
	s := b.sys
	if s.forceDense {
		// Retained dense oracle (equivalence tests): O(n²) scan via the
		// map-free closure, same scorer-creation order as the sparse
		// prefetch (ascending i), so RNG streams stay aligned. The dense
		// solver also runs no frontier or fixed-point shortcut — it is
		// the reference everything else is pinned bit-identical against.
		g.EdgeQuality = func(i, j int) float64 {
			return b.stageEdgeQuality(overlay.NodeID(i), overlay.NodeID(j))
		}
		g.Workers = 0
		g.Stats = &s.lastSolve
		s.solveOwner = 0 // dense solves leave no reusable sparse rows
		ps := s.Prof.Start(telemetry.PhaseSolveInduction)
		table := g.SolveInto(scratch)
		ps.End()
		s.noteSolve(&s.lastSolve)
		return table
	}
	pr := s.Prof.Start(telemetry.PhaseSolveRows)
	row, rowLen, succ, qual := b.buildSparseRows(n)
	pr.End()
	g.Adjacency = func(i int) ([]int32, []float64) {
		lo, m := row[i], rowLen[i]
		return succ[lo : lo+m], qual[lo : lo+m]
	}
	s.buildReverse(n)
	prow, pred := s.solvePredRow, s.solvePred
	g.Predecessors = func(j int32) []int32 { return pred[prow[j]:prow[j+1]] }
	g.Stats = &s.lastSolve
	g.Scratch = &s.solveSweep
	if g.Workers > 1 {
		g.Pool = s.sweepPool()
	}
	ps := s.Prof.Start(telemetry.PhaseSolveInduction)
	table := g.SolveInto(scratch)
	ps.End()
	// Record what the warm re-solver needs to pick this solve up: whose
	// rows the scratch holds, over how many nodes, and from which stage
	// the table rows are pairwise identical.
	s.solveOwner, s.solveN, s.solveConverged = b.ID, n, s.lastSolve.Converged
	s.noteSolve(&s.lastSolve)
	return table
}

// resolveIncremental attempts a warm re-solve of the batch's cached
// table in place: it asks the overlay and probe journals exactly what
// changed since the stamped versions, expands those changes into the set
// of candidate rows that can feel them, refreshes those rows, and lets
// game.ResolveInto propagate the rows whose contents actually moved
// through the reverse CSR. Returns false — leaving the caller to run a
// full solve — when any precondition fails:
//
//   - the sparse scratch describes another batch's solve or a different
//     population size (any Join changes Net.Len);
//   - a journal cannot cover the span (overlay.Touch wildcard, probe
//     TickAll round, or eviction of old entries);
//   - the dirty set exceeds half the population, where refreshing rows
//     one by one loses to the sequential full rebuild;
//   - a dirty node's neighbor list outgrew its slot span (neighbor
//     repair), so its row no longer fits without recomputing offsets.
//
// Every bail-out happens before the first scorer prefetch, so the RNG
// split sequence (estimator creation) is identical whether an event is
// handled incrementally or by a full solve — the bit-equivalence suite
// depends on that.
func (b *Batch) resolveIncremental(st spneStamp, netV, probeV uint64) bool {
	s := b.sys
	n := s.Net.Len()
	if s.solveOwner != b.ID || s.solveN != n {
		return false
	}
	if len(b.spne) != s.cfg.MaxHops+1 || len(b.spne[0]) != n {
		return false
	}
	ph := s.Prof.Start(telemetry.PhaseSolveIncremental)
	defer ph.End()
	buf, ok := s.Net.ChangesSince(st.net, s.dirtyNodes[:0])
	s.dirtyNodes = buf
	if !ok {
		return false
	}
	netEnd := len(buf)
	buf, ok = s.Probes.ChangesSince(st.probe, buf)
	s.dirtyNodes = buf
	if !ok {
		return false
	}
	histMoved := st.hist != b.histQual || (b.histQual != 0 && st.k != b.k)

	// Rebuild the reverse CSR from the current neighbor lists — needed
	// both to expand lifecycle changes into the rows that can see them
	// and for the frontier propagation inside ResolveInto.
	s.buildReverse(n)
	prow, pred := s.solvePredRow, s.solvePred

	if cap(s.dirtyMark) < n {
		s.dirtyMark = make([]bool, n)
	}
	mark := s.dirtyMark[:n]
	list := s.dirtyList[:0]
	add := func(x int32) {
		if !mark[x] {
			mark[x] = true
			list = append(list, x)
		}
	}
	// A lifecycle change of x rewrites x's own row and every row listing
	// x (x appears or vanishes as a candidate); a neighbor edit or probe
	// tick of x rewrites x's row only; history/k movement rewrites the
	// rows of every node holding quality-relevant history for the batch.
	for _, id := range buf[:netEnd] {
		add(int32(id))
		for _, p := range pred[prow[id]:prow[id+1]] {
			add(p)
		}
	}
	for _, id := range buf[netEnd:] {
		add(int32(id))
	}
	if histMoved {
		for id := range b.histNodes {
			add(int32(id))
		}
	}
	for _, x := range list {
		mark[x] = false
	}
	s.dirtyList = list
	if len(list)*2 > n {
		return false
	}
	// Conservative fit check before any row is touched: a row can only
	// have outgrown its span if its raw neighbor list did.
	row, rowLen := s.solveRow[:n+1], s.solveLen[:n]
	for _, x := range list {
		id := overlay.NodeID(x)
		if id == b.Responder || !s.Net.Online(id) {
			continue
		}
		if len(s.Net.Node(id).Neighbors)+1 > int(row[x+1]-row[x]) {
			return false
		}
	}
	// Ascending refresh order, for two reasons: a node missing its probe
	// estimator consumes an RNG split at scorer prefetch, and ascending
	// IDs is the order every full solve creates them in — transcripts
	// must not depend on which solve flavor handled an event. It also
	// neutralises the map iteration order of histNodes above.
	slices.Sort(list)
	seeds := list[:0]
	for _, x := range list {
		if b.refreshRow(int(x)) {
			seeds = append(seeds, x)
		}
	}
	succ, qual := s.solveSucc, s.solveQual
	g := &game.PathGame{
		Nodes:     n,
		Responder: int(b.Responder),
		Pf:        b.Contract.Pf,
		Pr:        b.Contract.Pr,
		Cost:      s.cfg.Cost,
		MaxHops:   s.cfg.MaxHops,
		Workers:   s.cfg.SolveWorkers,
		Adjacency: func(i int) ([]int32, []float64) {
			lo, m := row[i], rowLen[i]
			return succ[lo : lo+m], qual[lo : lo+m]
		},
		Predecessors: func(j int32) []int32 { return pred[prow[j]:prow[j+1]] },
		Stats:        &s.lastSolve,
		Scratch:      &s.solveSweep,
	}
	if g.Workers > 1 {
		g.Pool = s.sweepPool()
	}
	g.ResolveInto(b.spne, seeds, s.solveConverged)
	s.solveConverged = s.lastSolve.Converged
	s.noteSolve(&s.lastSolve)
	return true
}

// refreshRow recomputes node i's candidate row in place against the
// current overlay/probe/history state, exactly as buildSparseRows' fill
// would, and reports whether the row's contents actually changed (full
// bit comparison — an unchanged row must not seed the frontier). The
// caller has already verified the new candidates fit the row's span.
func (b *Batch) refreshRow(i int) (changed bool) {
	s := b.sys
	lo := int(s.solveRow[i])
	oldLen := int(s.solveLen[i])
	id := overlay.NodeID(i)
	if id == b.Responder || !s.Net.Online(id) {
		s.solveScorers[i] = nil
		s.solveLen[i] = 0
		return oldLen != 0
	}
	neigh := s.Net.Node(id).Neighbors
	want := len(neigh) + 1
	if cap(s.refreshSucc) < want {
		s.refreshSucc = make([]int32, want)
		s.refreshQual = make([]float64, want)
	}
	cands := s.refreshSucc[:want]
	m := 0
	for _, v := range neigh {
		if v == id || v == b.Responder || v == b.Initiator || !s.Net.Online(v) {
			continue
		}
		cands[m] = int32(v)
		m++
	}
	cands[m] = int32(b.Responder) // delivery edge, last-edge rule
	m = game.SortUnique(cands[:m+1])
	sc := s.scorer(id, b.ID)
	s.solveScorers[i] = sc
	quals := s.refreshQual[:m]
	for a := 0; a < m; a++ {
		quals[a] = sc.Edge(overlay.NodeID(cands[a]), b.Responder, b.k)
	}
	oldS := s.solveSucc[lo : lo+oldLen]
	oldQ := s.solveQual[lo : lo+oldLen]
	changed = m != oldLen
	if !changed {
		for a := 0; a < m; a++ {
			if cands[a] != oldS[a] || math.Float64bits(quals[a]) != math.Float64bits(oldQ[a]) {
				changed = true
				break
			}
		}
	}
	if changed {
		copy(s.solveSucc[lo:lo+m], cands[:m])
		copy(s.solveQual[lo:lo+m], quals)
		s.solveLen[i] = int32(m)
	}
	return changed
}

// buildSparseRows materialises the stage game's sparse adjacency into the
// system's reusable CSR-with-slack scratch and returns its views. Two
// passes:
//
//  1. A sequential prefetch over ascending node IDs computes each node's
//     slot offset and creates every lazily-built input — scorers, and
//     through them probe estimators, whose construction consumes RNG
//     stream splits. Creation order is exactly the order the dense build
//     used, so transcripts stay byte-identical.
//  2. A row fill — shardable over contiguous node regions when
//     Config.SolveWorkers > 1, since it consumes no randomness, reads
//     only overlay/probe/history state and writes disjoint slot ranges —
//     gathers each node's eligible successors, sorts them ascending,
//     deduplicates and scores them with the node's own scorer.
func (b *Batch) buildSparseRows(n int) (row, rowLen []int32, succ []int32, qual []float64) {
	s := b.sys
	if cap(s.solveRow) < n+1 {
		s.solveRow = make([]int32, n+1)
	}
	row = s.solveRow[:n+1]
	slots := 0
	for i := 0; i < n; i++ {
		row[i] = int32(slots)
		id := overlay.NodeID(i)
		if id == b.Responder || !s.Net.Online(id) {
			continue
		}
		// Upper bound: every neighbor plus the delivery edge to R.
		slots += len(s.Net.Node(id).Neighbors) + 1
	}
	row[n] = int32(slots)
	s.solveScratch(n, slots)
	rowLen = s.solveLen[:n]
	succ = s.solveSucc[:slots]
	qual = s.solveQual[:slots]
	scorers := s.solveScorers[:n]
	for i := 0; i < n; i++ {
		id := overlay.NodeID(i)
		if id == b.Responder || !s.Net.Online(id) {
			scorers[i] = nil
			continue
		}
		scorers[i] = s.scorer(id, b.ID)
	}

	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sc := scorers[i]
			if sc == nil {
				rowLen[i] = 0
				continue
			}
			id := overlay.NodeID(i)
			cands := succ[row[i]:row[i+1]]
			m := 0
			for _, v := range s.Net.Node(id).Neighbors {
				if v == id || v == b.Responder || v == b.Initiator || !s.Net.Online(v) {
					continue
				}
				cands[m] = int32(v)
				m++
			}
			cands[m] = int32(b.Responder) // delivery edge, last-edge rule
			// Ascending and duplicate free: the induction must visit
			// candidates in the dense scan's order for tie-break identity
			// (neighbor lists should already be duplicate free).
			m = game.SortUnique(cands[:m+1])
			qrow := qual[row[i]:row[i+1]]
			for a := 0; a < m; a++ {
				// Edge returns the literal 1 for v == R, matching the
				// dense build's explicit delivery entry.
				qrow[a] = sc.Edge(overlay.NodeID(cands[a]), b.Responder, b.k)
			}
			rowLen[i] = int32(m)
		}
	}
	workers := s.cfg.SolveWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fill(0, n)
		return row, rowLen, succ, qual
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return row, rowLen, succ, qual
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
	return b.sys.scorer(i, b.ID).Edge(j, b.Responder, b.k)
}

// shuffleIDs is a tiny Fisher-Yates over node IDs using the system RNG.
func shuffleIDs(rng interface{ Intn(int) int }, xs []overlay.NodeID) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
