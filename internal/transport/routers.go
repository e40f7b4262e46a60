package transport

import (
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
	// stage game's vertex space, max node id + 1.
	nbrs  [][]int32
	w     quality.Weights
	c     core.Contract
	avail map[overlay.NodeID]float64
	dead  map[overlay.NodeID]struct{}
	// hist[batch][edge] counts connections that used the edge; conns
	// tracks per-batch connection counts for the selectivity denominator.
	hist  map[int]edgeUses
	conns map[int]map[int]struct{}
}

// edgeUses maps a directed edge to the connections of one batch that used it.
type edgeUses map[[2]overlay.NodeID]map[int]struct{}

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
	return &UtilityRouter{
		nbrs:  nbrs,
		w:     w,
		c:     c,
		avail: avail,
		dead:  make(map[overlay.NodeID]struct{}),
		hist:  make(map[int]edgeUses),
		conns: make(map[int]map[int]struct{}),
	}
}

// MarkDead implements ChurnAware: id is excluded from future candidates.
func (r *UtilityRouter) MarkDead(id overlay.NodeID) {
	r.mu.Lock()
	r.dead[id] = struct{}{}
	r.mu.Unlock()
}

// MarkLive implements ChurnAware: a rejoined id becomes routable again.
func (r *UtilityRouter) MarkLive(id overlay.NodeID) {
	r.mu.Lock()
	delete(r.dead, id)
	r.mu.Unlock()
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
	k := len(r.conns[batch]) + 1
	uses := r.hist[batch]
	// Edge never scores below 0, so the first candidate displaces the
	// sentinel and best stays None only when there is no candidate.
	best, bestQ := overlay.None, -1.0
	for _, j := range r.nbrs[self] {
		v := overlay.NodeID(j)
		if v == pred || v == initiator || v == responder || v == self {
			continue
		}
		if _, gone := r.dead[v]; gone {
			continue
		}
		if q := r.w.Edge(uses.selectivity(self, v, k), r.avail[v]); q > bestQ {
			best, bestQ = v, q
		}
	}
	if best == overlay.None {
		return overlay.None, true
	}
	r.record(batch, conn, self, best)
	return best, false
}

// selectivity is σ(from, to) for the batch's k-th connection: the share of
// the k−1 earlier connections that used the edge.
func (u edgeUses) selectivity(from, to overlay.NodeID, k int) float64 {
	if k <= 1 {
		return 0
	}
	sigma := float64(len(u[[2]overlay.NodeID{from, to}])) / float64(k-1)
	if sigma > 1 {
		sigma = 1
	}
	return sigma
}

func (r *UtilityRouter) record(batch, conn int, from, to overlay.NodeID) {
	edges, ok := r.hist[batch]
	if !ok {
		edges = make(edgeUses)
		r.hist[batch] = edges
	}
	e := [2]overlay.NodeID{from, to}
	if edges[e] == nil {
		edges[e] = make(map[int]struct{})
	}
	edges[e][conn] = struct{}{}
	if r.conns[batch] == nil {
		r.conns[batch] = make(map[int]struct{})
	}
	r.conns[batch][conn] = struct{}{}
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
// connection; the prescriptions of the spneCacheCap most recently solved
// connections are kept. Safe for concurrent use.
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
	// (row/succ/qual, O(n·d)) and the Decision table SolveInto recycles.
	game  game.PathGame
	row   []int32
	succ  []int32
	qual  []float64
	table [][]game.Decision

	// SPNE cache instrumentation, bound by Instrument (nil-safe when not).
	cacheHits, cacheMisses, cacheEvictions *telemetry.Counter
	cacheEntries                           *telemetry.Gauge
}

// spneCacheEntry is one connection's solved game, reduced to what NextHop
// reads: next[h*nodes+i] is the successor prescribed to i with h hops of
// budget left (−1 for none). Its storage is reused by the slot's next
// occupant.
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
// in this connection's game, solving it if the cache does not hold it. A
// connection whose entry was evicted or dropped mid-path re-solves against
// the history as it stands now, exactly as it does after MarkDead.
func (r *UtilityIIRouter) prescribed(self, initiator, responder overlay.NodeID, batch, conn, remaining int) overlay.NodeID {
	key := [2]int{batch, conn}
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	e := r.cached(key)
	if e != nil && e.responder == responder && e.budget >= remaining {
		r.cacheHits.Inc()
		return e.at(remaining, len(r.nbrs), self)
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
	e.key, e.responder, e.budget = key, responder, remaining
	e.next = e.next[:0]
	for _, stage := range r.solve(initiator, responder, batch, remaining) {
		for _, d := range stage {
			e.next = append(e.next, int32(d.Next))
		}
	}
	return e.at(remaining, len(r.nbrs), self)
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

// solve builds and solves the budget-stage game of one connection of batch
// and returns its table, which the next solve overwrites. Caller holds
// cacheMu.
func (r *UtilityIIRouter) solve(initiator, responder overlay.NodeID, batch, budget int) [][]game.Decision {
	r.fillRows(initiator, responder, batch)
	r.game.Responder = int(responder)
	r.game.MaxHops = budget
	if len(r.table) > budget {
		// A table grown for a longer budget serves a shorter one.
		return r.game.SolveInto(r.table[:budget+1])
	}
	r.table = r.game.SolveInto(nil)
	return r.table
}

// fillRows writes the stage game's sparse adjacency into the CSR scratch.
// Node i gets a row iff it is a key of the topology, alive and not R. The
// row lists, ascending, i's live neighbors other than i itself and I,
// scored w_s·σ + w_a·α, and — for every such i, neighbor of R or not — the
// delivery edge (i, R) with the literal quality 1 at R's ascending
// position, unless R is dead. Ascending order makes the sparse induction
// break ties exactly as a dense scan over j would.
//
// History and the dead set are read under one hold of mu, so a solve sees
// one consistent state.
func (r *UtilityIIRouter) fillRows(initiator, responder overlay.NodeID, batch int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := len(r.conns[batch]) + 1
	uses := r.hist[batch]
	_, rDead := r.dead[responder]
	deliver := int32(responder)
	pos := int32(0)
	for i, nb := range r.nbrs {
		r.row[i] = pos
		id := overlay.NodeID(i)
		if nb == nil || id == responder {
			continue
		}
		if _, gone := r.dead[id]; gone {
			continue
		}
		delivered := rDead
		for _, j := range nb {
			if !delivered && j >= deliver {
				r.succ[pos], r.qual[pos] = deliver, 1
				pos++
				delivered = true
			}
			v := overlay.NodeID(j)
			if v == responder || v == id || v == initiator {
				continue
			}
			if _, gone := r.dead[v]; gone {
				continue
			}
			r.succ[pos], r.qual[pos] = j, r.w.Edge(uses.selectivity(id, v, k), r.avail[v])
			pos++
		}
		if !delivered {
			r.succ[pos], r.qual[pos] = deliver, 1
			pos++
		}
	}
	r.row[len(r.nbrs)] = pos
}
