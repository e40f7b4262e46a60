package transport

import (
	"slices"
	"sync"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
)

// Topology is the static neighbor map the live routers consult. The
// concurrent runtime snapshots the overlay once; churn during a live run
// is modelled by removing peers from the snapshot between batches.
type Topology map[overlay.NodeID][]overlay.NodeID

// SnapshotTopology captures the current online overlay into a Topology.
func SnapshotTopology(net *overlay.Network) Topology {
	topo := make(Topology)
	for _, id := range net.OnlineIDs() {
		var nbs []overlay.NodeID
		for _, v := range net.Node(id).Neighbors {
			if net.Online(v) {
				nbs = append(nbs, v)
			}
		}
		topo[id] = nbs
	}
	return topo
}

// candidatesOf filters a peer's neighbors like core does: drop the
// predecessor, the initiator and the responder (delivery is the explicit
// fallback, and routing back through I would expose it for nothing), plus
// any peer known to have departed.
func (t Topology) candidatesOf(self, pred, initiator, responder overlay.NodeID, dead map[overlay.NodeID]struct{}) []overlay.NodeID {
	var out []overlay.NodeID
	for _, v := range t[self] {
		if v == pred || v == initiator || v == responder || v == self {
			continue
		}
		if _, gone := dead[v]; gone {
			continue
		}
		out = append(out, v)
	}
	return out
}

// RandomRouter forwards to a uniformly random candidate; with none it
// delivers. Safe for concurrent use; implements ChurnAware so reformed
// paths avoid peers found dead.
type RandomRouter struct {
	mu   sync.Mutex
	topo Topology
	rng  *dist.Source
	dead map[overlay.NodeID]struct{}
}

// NewRandomRouter builds a random router over a topology snapshot.
func NewRandomRouter(topo Topology, rng *dist.Source) *RandomRouter {
	return &RandomRouter{topo: topo, rng: rng, dead: make(map[overlay.NodeID]struct{})}
}

// MarkDead implements ChurnAware: id is excluded from future candidates.
func (r *RandomRouter) MarkDead(id overlay.NodeID) {
	r.mu.Lock()
	r.dead[id] = struct{}{}
	r.mu.Unlock()
}

// MarkLive implements ChurnAware: a rejoined id becomes routable again.
func (r *RandomRouter) MarkLive(id overlay.NodeID) {
	r.mu.Lock()
	delete(r.dead, id)
	r.mu.Unlock()
}

// NextHop implements Router.
func (r *RandomRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cands := r.topo.candidatesOf(self, pred, initiator, responder, r.dead)
	if len(cands) == 0 {
		return overlay.None, true
	}
	return dist.Choice(r.rng, cands), false
}

// UtilityRouter implements Utility Model I over the live runtime: per-peer
// per-batch history (selectivity) plus static availability scores, scored
// with the configured weights. Safe for concurrent use; implements
// ChurnAware so reformed paths avoid peers found dead.
type UtilityRouter struct {
	mu sync.Mutex
	// nbrs[id] is id's neighbor list from the topology snapshot, sorted
	// ascending and duplicate free (game.SortUnique, once at construction);
	// nil for an id that is not a key of the topology. Its length is the
	// stage game's vertex space, max node id + 1, over which avail and dead
	// are indexed too: an id outside it is nobody's candidate.
	nbrs  [][]int32
	w     quality.Weights
	c     core.Contract
	avail []float64
	dead  []bool
	// batches holds the routing history, selectivity's input, of each
	// batch from its first recorded hop until CloseBatch drops it when the
	// batch's settlement reaches a station routing with this router.
	batches map[int]*batchHist
}

// batchHist is one batch's routing history: the directed edges its
// connections used, each with the number of distinct connections that
// used it, so a connection reusing an edge — a cycle, a re-attempt —
// counts once. Edges are int32 pairs like the rows': every batch open at
// once holds a history, so its keys are kept small.
type batchHist struct {
	uses  map[[2]int32]int32
	seen  map[connEdge]struct{} // the (conn, edge) pairs counted in uses
	conns map[int]struct{}      // connections that recorded a hop
}

type connEdge struct {
	conn int
	edge [2]int32
}

// selectivity is σ(e) for the batch's next connection k: the share of the
// k−1 connections that have recorded a hop so far (the one in flight
// included once it has) that used e. A nil history has σ = 0 everywhere.
func (h *batchHist) selectivity(e [2]int32) float64 {
	if h == nil {
		return 0
	}
	return float64(h.uses[e]) / float64(len(h.conns))
}

// NewUtilityRouter builds a Model-I router. avail maps node → availability
// estimate in [0, 1] (e.g. from probe snapshots before going live).
func NewUtilityRouter(topo Topology, w quality.Weights, c core.Contract, avail map[overlay.NodeID]float64) *UtilityRouter {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	maxID := overlay.NodeID(0)
	for id, nbs := range topo {
		maxID = max(maxID, id)
		for _, v := range nbs {
			maxID = max(maxID, v)
		}
	}
	nbrs := make([][]int32, maxID+1)
	for id, nbs := range topo {
		row := make([]int32, len(nbs))
		for a, v := range nbs {
			row[a] = int32(v)
		}
		nbrs[id] = row[:game.SortUnique(row)]
	}
	dense := make([]float64, len(nbrs))
	for id, a := range avail {
		if id >= 0 && id <= maxID {
			dense[id] = a
		}
	}
	return &UtilityRouter{
		nbrs:    nbrs,
		w:       w,
		c:       c,
		avail:   dense,
		dead:    make([]bool, len(nbrs)),
		batches: make(map[int]*batchHist),
	}
}

// MarkDead implements ChurnAware: id is excluded from future candidates.
func (r *UtilityRouter) MarkDead(id overlay.NodeID) { r.setDead(id, true) }

// MarkLive implements ChurnAware: a rejoined id becomes routable again.
func (r *UtilityRouter) MarkLive(id overlay.NodeID) { r.setDead(id, false) }

func (r *UtilityRouter) setDead(id overlay.NodeID, dead bool) {
	if id < 0 || int(id) >= len(r.dead) {
		return
	}
	r.mu.Lock()
	r.dead[id] = dead
	r.mu.Unlock()
}

// CloseBatch implements BatchCloser: the batch's history goes. A
// UtilityIIRouter closes through this method too; its cached
// prescriptions are bounded by spneCacheCap and left to eviction.
func (r *UtilityRouter) CloseBatch(batch int) {
	r.mu.Lock()
	delete(r.batches, batch)
	r.mu.Unlock()
}

// OpenBatches returns how many batches the router holds a history for.
func (r *UtilityRouter) OpenBatches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

// NextHop implements Router: maximise P_f + q·P_r (costs are uniform in
// the live demo, so they do not affect the argmax), ties to higher q then
// lower ID — strict > over the ascending neighbor list. Candidates are
// filtered as Topology.candidatesOf does.
func (r *UtilityRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if self < 0 || int(self) >= len(r.nbrs) {
		return overlay.None, true
	}
	h := r.batches[batch]
	// Edge never scores below 0, so the first candidate displaces the
	// sentinel and best stays None only when there is no candidate.
	best, bestQ := overlay.None, -1.0
	for _, j := range r.nbrs[self] {
		v := overlay.NodeID(j)
		if v == pred || v == initiator || v == responder || v == self || r.dead[j] {
			continue
		}
		if q := r.w.Edge(h.selectivity([2]int32{int32(self), j}), r.avail[j]); q > bestQ {
			best, bestQ = v, q
		}
	}
	if best == overlay.None {
		return overlay.None, true
	}
	r.record(batch, conn, self, best)
	return best, false
}

// record adds the hop from→to of connection conn to the batch's history.
// Caller holds mu.
func (r *UtilityRouter) record(batch, conn int, from, to overlay.NodeID) {
	h := r.batches[batch]
	if h == nil {
		h = &batchHist{uses: make(map[[2]int32]int32), seen: make(map[connEdge]struct{}), conns: make(map[int]struct{})}
		r.batches[batch] = h
	}
	e := [2]int32{int32(from), int32(to)}
	if _, counted := h.seen[connEdge{conn, e}]; !counted {
		h.seen[connEdge{conn, e}] = struct{}{}
		h.uses[e]++
	}
	h.conns[conn] = struct{}{}
}

// spneCacheCap bounds how many connections' prescriptions the Model-II
// router keeps. A connection reads its entry once per hop and never again
// after it confirms, so the cache only has to outlast the connections in
// flight at once; a long run's memory no longer grows with its length.
const spneCacheCap = 64

// UtilityIIRouter implements Utility Model II over the live runtime: at
// each hop it plays the SPNE prescription of the bounded path game from
// itself to the responder over the topology snapshot — edge qualities from
// the same per-batch selectivity and static availability the Model-I
// router uses. The game is built as sparse neighbor rows (see fillRows) and
// solved once per (batch, conn), since qualities are stable within a
// connection — and only the cone of cells the connection's play can reach
// (game.SolveFrom from its first holder and budget); the prescriptions of
// the spneCacheCap most recently solved connections are kept. Safe for
// concurrent use.
type UtilityIIRouter struct {
	*UtilityRouter

	// cacheMu guards everything below; it is taken before mu, never after.
	cacheMu sync.Mutex
	// slots is a ring in solve order: the solved-th solve since the cache
	// was last emptied lands in slot solved % spneCacheCap, evicting what
	// was there, so min(solved, spneCacheCap) slots are live.
	slots  [spneCacheCap]spneCacheEntry
	solved int

	// The stage game and its storage, reused by every solve: CSR rows
	// (row/succ/qual, O(n·d)) and the memo SolveFrom fills, sized for the
	// largest budget solved so far (memoHops) so a shorter one reuses it.
	game     game.PathGame
	row      []int32
	succ     []int32
	qual     []float64
	memo     game.Memo
	memoHops int
	// base[v] is the quality of an edge into v that no connection of the
	// batch has used, Edge(0, α(v)): every row entry starts from it.
	base []float64

	// SPNE cache instrumentation, bound by Instrument (nil-safe when not).
	cacheHits, cacheMisses, cacheEvictions *telemetry.Counter
	cacheEntries                           *telemetry.Gauge
}

// unsolved marks a cache cell outside the solved cone. The play never
// reads one (every hop follows an edge of the holder's row, and the cone
// holds the cells of all of them); if it did, the read would count as a
// miss and re-solve from there.
const unsolved = -2

// spneCacheEntry is one connection's solved game, reduced to what NextHop
// reads: next[h*nodes+i] is the successor prescribed to i with h hops of
// budget left (−1 for none, unsolved outside the cone). Its storage is
// reused by the slot's next occupant.
type spneCacheEntry struct {
	key       [2]int // (batch, conn)
	responder overlay.NodeID
	budget    int
	next      []int32
}

// at reads the prescription for self with h hops left from a table that is
// nodes wide.
func (e *spneCacheEntry) at(h, nodes int, self overlay.NodeID) overlay.NodeID {
	return overlay.NodeID(e.next[h*nodes+int(self)])
}

// NewUtilityIIRouter builds a Model-II router over the topology snapshot.
func NewUtilityIIRouter(topo Topology, w quality.Weights, c core.Contract, avail map[overlay.NodeID]float64) *UtilityIIRouter {
	r := &UtilityIIRouter{UtilityRouter: NewUtilityRouter(topo, w, c, avail)}
	edges := 0
	for _, nb := range r.nbrs {
		if nb != nil {
			edges += len(nb) + 1 // every neighbor plus the delivery edge
		}
	}
	r.row = make([]int32, len(r.nbrs)+1)
	r.succ = make([]int32, edges)
	r.qual = make([]float64, edges)
	r.base = make([]float64, len(r.nbrs))
	for v, a := range r.avail {
		r.base[v] = w.Edge(0, a)
	}
	r.game = game.PathGame{
		Nodes: len(r.nbrs),
		Adjacency: func(i int) ([]int32, []float64) {
			lo, hi := r.row[i], r.row[i+1]
			return r.succ[lo:hi], r.qual[lo:hi]
		},
		Pf: r.c.Pf,
		Pr: r.c.Pr,
	}
	return r
}

// Instrument binds the router's SPNE cache instruments into reg — hits,
// misses, evictions and the current entry count — so game-layer solve
// reuse and the cache bound are visible on the exposition endpoint. Call
// before traffic starts.
func (r *UtilityIIRouter) Instrument(reg *telemetry.Registry) {
	reg.Help(metricSPNECacheTotal, "SPNE table lookups served from cache (result=hit) vs solved fresh (result=miss)")
	reg.Help(metricSPNECacheEntries, "connections whose SPNE prescription is cached (bounded)")
	reg.Help(metricSPNECacheEvicted, "cached SPNE prescriptions displaced by a newer solve")
	r.cacheHits = reg.Counter(metricSPNECacheTotal, telemetry.Labels{"result": "hit"})
	r.cacheMisses = reg.Counter(metricSPNECacheTotal, telemetry.Labels{"result": "miss"})
	r.cacheEvictions = reg.Counter(metricSPNECacheEvicted, nil)
	r.cacheEntries = reg.Gauge(metricSPNECacheEntries, nil)
}

// MarkDead implements ChurnAware: besides excluding id from candidates,
// cached prescriptions are discarded — they may route through the corpse,
// and a reformed attempt must re-solve without it.
func (r *UtilityIIRouter) MarkDead(id overlay.NodeID) {
	r.UtilityRouter.MarkDead(id)
	r.dropCache()
}

// MarkLive implements ChurnAware; stale prescriptions solved without the
// returned peer are merely conservative, but dropping them lets routing
// use it again immediately.
func (r *UtilityIIRouter) MarkLive(id overlay.NodeID) {
	r.UtilityRouter.MarkLive(id)
	r.dropCache()
}

// dropCache empties the cache and restarts its eviction order; the slots
// keep their storage for the next occupants.
func (r *UtilityIIRouter) dropCache() {
	r.cacheMu.Lock()
	r.solved = 0
	r.cacheEntries.Set(0)
	r.cacheMu.Unlock()
}

// NextHop implements Router via SPNE play.
func (r *UtilityIIRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	next := r.prescribed(self, initiator, responder, batch, conn, remaining)
	if next < 0 || next == pred {
		// No feasible continuation, or an immediate return (the table is
		// computed over walks): fall back to the local Model-I rule.
		return r.UtilityRouter.NextHop(self, pred, initiator, responder, batch, conn, remaining)
	}
	if next == responder {
		return overlay.None, true
	}
	r.mu.Lock()
	r.record(batch, conn, self, next)
	r.mu.Unlock()
	return next, false
}

// prescribed returns the SPNE successor of self with remaining hops left
// in this connection's game, solving it if the cache does not hold it. The
// solve is rooted at the connection's first read — its initiator and full
// budget, before the first hop is recorded — and covers the cone of cells
// the play from there can reach. A connection whose entry was evicted or
// dropped mid-path re-solves from where it stands, against the history as
// it stands now, exactly as it does after MarkDead.
func (r *UtilityIIRouter) prescribed(self, initiator, responder overlay.NodeID, batch, conn, remaining int) overlay.NodeID {
	key := [2]int{batch, conn}
	nodes := len(r.nbrs)
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	e := r.cached(key)
	if e != nil && e.responder == responder && e.budget >= remaining {
		if next := e.at(remaining, nodes, self); next != unsolved {
			r.cacheHits.Inc()
			return next
		}
	}
	r.cacheMisses.Inc()
	if e == nil {
		// A key that is cached but no longer fits is re-solved in place;
		// a new one takes the oldest solve's slot.
		e = &r.slots[r.solved%spneCacheCap]
		if r.solved >= spneCacheCap {
			r.cacheEvictions.Inc()
		}
		r.solved++
		r.cacheEntries.Set(int64(min(r.solved, spneCacheCap)))
	}
	r.solve(self, initiator, responder, batch, remaining)
	e.key, e.responder, e.budget = key, responder, remaining
	e.next = e.next[:0]
	for h, stage := range r.memo.Table()[:remaining+1] {
		for i, d := range stage {
			next := int32(unsolved)
			if r.memo.Known(h, i) {
				next = int32(d.Next)
			}
			e.next = append(e.next, next)
		}
	}
	return e.at(remaining, nodes, self)
}

// cached returns the live entry for key, or nil. It scans the ring from the
// newest solve backwards: a connection in flight is among the latest
// solves, so the scan usually ends at its first probe. Caller holds cacheMu.
func (r *UtilityIIRouter) cached(key [2]int) *spneCacheEntry {
	for age := 1; age <= min(r.solved, spneCacheCap); age++ {
		if e := &r.slots[(r.solved-age)%spneCacheCap]; e.key == key {
			return e
		}
	}
	return nil
}

// solve builds the stage game of one connection of batch and solves, into
// r.memo, the cone of cells the play from (start, budget) can reach; the
// next solve overwrites it. Rows, history and the dead set are read under
// one hold of mu, so a solve sees one consistent state. Caller holds
// cacheMu.
func (r *UtilityIIRouter) solve(start, initiator, responder overlay.NodeID, batch, budget int) {
	r.mu.Lock()
	r.fillRows(initiator, responder, batch)
	startDead := r.dead[start]
	r.mu.Unlock()
	r.game.Responder = int(responder)
	r.memoHops = max(r.memoHops, budget)
	r.memo.Reset(len(r.nbrs), r.memoHops)
	r.game.SolveFrom(&r.memo, int(start), budget)
	if startDead {
		// A holder believed dead has no row, yet its Model-I fallback still
		// forwards to one of its neighbors: the play goes on from there.
		for _, j := range r.nbrs[start] {
			r.game.SolveFrom(&r.memo, int(j), budget-1)
		}
	}
}

// fillRows writes the stage game's sparse adjacency into the CSR scratch.
// Node i gets a row iff it is a key of the topology, alive and not R. The
// row lists, ascending, i's live neighbors other than i itself and I,
// scored w_s·σ + w_a·α, and — for every such i, neighbor of R or not — the
// delivery edge (i, R) with the literal quality 1 at R's ascending
// position, unless R is dead. Ascending order makes the sparse induction
// break ties exactly as a dense scan over j would.
//
// σ is zero on every edge the batch's history does not name, where the
// score is the base quality; the edges it names are rescored afterwards,
// so the cost of history is its length, not the graph's. Caller holds mu.
func (r *UtilityIIRouter) fillRows(initiator, responder overlay.NodeID, batch int) {
	deliver, skip := int32(responder), int32(initiator)
	pos := int32(0)
	for i, nb := range r.nbrs {
		r.row[i] = pos
		if nb == nil || int32(i) == deliver || r.dead[i] {
			continue
		}
		delivered := r.dead[deliver]
		for _, j := range nb {
			if !delivered && j >= deliver {
				r.succ[pos], r.qual[pos] = deliver, 1
				pos++
				delivered = true
			}
			if j == deliver || j == int32(i) || j == skip || r.dead[j] {
				continue
			}
			r.succ[pos], r.qual[pos] = j, r.base[j]
			pos++
		}
		if !delivered {
			r.succ[pos], r.qual[pos] = deliver, 1
			pos++
		}
	}
	r.row[len(r.nbrs)] = pos

	h := r.batches[batch]
	if h == nil {
		return
	}
	for e := range h.uses {
		from, to := e[0], e[1]
		if to == int32(responder) {
			continue // the delivery edge is never scored
		}
		lo := r.row[from]
		if a, ok := slices.BinarySearch(r.succ[lo:r.row[from+1]], to); ok {
			r.qual[lo+int32(a)] = r.w.Edge(h.selectivity(e), r.avail[to])
		}
	}
}
