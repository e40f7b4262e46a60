package transport

import (
	"fmt"
	"sync"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/history"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/quality"
	"p2panon/internal/stats"
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

// StaticWorld builds the seeded static world the live routers run on: an
// overlay of n online nodes (ids 0..n-1) of the given degree, probed for
// five periods, its topology snapshot, and each node's availability score,
// the mean of its neighbors' estimates. It draws two splits of rng, the
// overlay's then the probes', so a caller that splits rng afterwards draws
// the same streams on every run. reg, when non-nil, instruments the overlay
// and the probes.
func StaticWorld(n, degree int, rng *dist.Source, reg *telemetry.Registry) (*overlay.Network, Topology, map[overlay.NodeID]float64) {
	net := overlay.NewNetwork(degree, rng.Split())
	net.Instrument(reg)
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	probes.Instrument(reg)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	// Each node's estimates are pooled in OnlineIDs order, so the float
	// sums never see map order.
	views := make(map[overlay.NodeID][]float64)
	for _, id := range net.OnlineIDs() {
		for v, a := range probes.For(id).Snapshot() {
			views[v] = append(views[v], a)
		}
	}
	avail := make(map[overlay.NodeID]float64, n)
	for id, vs := range views {
		avail[id] = stats.Mean(vs)
	}
	return net, SnapshotTopology(net), avail
}

// NewRouter builds the live router of strategy s over topo: a
// RandomRouter drawing from a split of rng (the only draw, and only under
// core.Random), a UtilityRouter (Model I) or a UtilityIIRouter (Model II)
// scoring with the default weights, contract c and the availability
// scores avail. core.FixedPath has no live router.
func NewRouter(s core.Strategy, topo Topology, c core.Contract, avail map[overlay.NodeID]float64, rng *dist.Source) (Router, error) {
	switch s {
	case core.Random:
		return NewRandomRouter(topo, rng.Split()), nil
	case core.UtilityI:
		return NewUtilityRouter(topo, quality.DefaultWeights(), c, avail), nil
	case core.UtilityII:
		return NewUtilityIIRouter(topo, quality.DefaultWeights(), c, avail), nil
	}
	return nil, fmt.Errorf("transport: strategy %v has no live router", s)
}

// liveness is a router's lock and its belief of which peers are up,
// indexed by node id over the topology's vertex space (max id + 1 over its
// keys and neighbors), so an id outside it is nobody's candidate. It
// implements ChurnAware.
type liveness struct {
	mu sync.Mutex
	up []bool
}

// init sizes the vertex space for topo, every peer believed alive.
func (l *liveness) init(topo Topology) {
	maxID := overlay.NodeID(0)
	for id, nbs := range topo {
		maxID = max(maxID, id)
		for _, v := range nbs {
			maxID = max(maxID, v)
		}
	}
	l.up = make([]bool, maxID+1)
	for i := range l.up {
		l.up[i] = true
	}
}

// MarkDead implements ChurnAware: id is excluded from future candidates.
func (l *liveness) MarkDead(id overlay.NodeID) { l.set(id, false) }

// MarkLive implements ChurnAware: a rejoined id becomes routable again.
func (l *liveness) MarkLive(id overlay.NodeID) { l.set(id, true) }

func (l *liveness) set(id overlay.NodeID, alive bool) {
	if id < 0 || int(id) >= len(l.up) {
		return
	}
	l.mu.Lock()
	l.up[id] = alive
	l.mu.Unlock()
}

// RandomRouter forwards to a uniformly random candidate (core.Candidates
// over the topology's neighbor order); with none it delivers. Safe for
// concurrent use; implements ChurnAware so reformed paths avoid peers
// found dead.
type RandomRouter struct {
	liveness
	topo  Topology
	rng   *dist.Source
	cands []overlay.NodeID
}

// NewRandomRouter builds a random router over a topology snapshot.
func NewRandomRouter(topo Topology, rng *dist.Source) *RandomRouter {
	r := &RandomRouter{topo: topo, rng: rng}
	r.init(topo)
	return r
}

// NextHop implements Router.
func (r *RandomRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := core.Hop{Cur: self, Pred: pred, Initiator: initiator, Responder: responder}
	r.cands = core.Candidates(r.cands[:0], h, r.topo[self], r.up)
	if len(r.cands) == 0 {
		return overlay.None, true
	}
	return dist.Choice(r.rng, r.cands), false
}

// UtilityRouter implements Utility Model I over the live runtime: every
// hop is chosen by the simulator's rule (core.Route) over per-batch
// history (selectivity) and static availability scores, with no costs:
// the live runtime's cost model is zero, so a peer accepts any contract
// with P_f > 0 (Prop. 3). Safe for concurrent use; implements ChurnAware
// so reformed paths avoid peers found dead.
type UtilityRouter struct {
	liveness
	// nbrs[id] is id's neighbor list from the topology snapshot, sorted
	// ascending and duplicate free (game.SortUnique, once at construction);
	// nil for an id that is not a key of the topology. It spans the vertex
	// space, over which avail is indexed too.
	nbrs  [][]int32
	w     quality.Weights
	avail []float64
	// batches holds the routing history, selectivity's input, of each
	// batch from its first recorded hop until CloseBatch drops it when the
	// batch's settlement reaches a station routing with this router. Only
	// forwarding hops are recorded: a delivery row never feeds a scored
	// edge.
	batches map[int]*history.Table

	// rule is the shared routing rule; view is its View, pointed at the
	// batch and connection of the hop being chosen.
	rule core.Rule
	view hopView
}

// hopView is the live router's core.View for one hop: scores from the
// batch's history as of connection conn and the static availabilities.
type hopView struct {
	r    *UtilityRouter
	h    *history.Table
	conn int
}

// Quality implements core.View. The live score is position-free.
func (v *hopView) Quality(cur, _, to overlay.NodeID) float64 {
	return v.r.w.Edge(v.h.Selectivity(cur, to, v.conn), v.r.avail[to])
}

// Accepts implements core.View: Prop. 3's participation condition under
// the zero cost model, the same for every peer.
func (v *hopView) Accepts(overlay.NodeID) bool {
	return game.ForwardingDominant(v.r.rule.Contract.Pf, v.r.rule.Cost.Participation, 0)
}

// NewUtilityRouter builds a Model-I router. avail maps node → availability
// estimate in [0, 1] (e.g. from probe snapshots before going live).
func NewUtilityRouter(topo Topology, w quality.Weights, c core.Contract, avail map[overlay.NodeID]float64) *UtilityRouter {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	r := &UtilityRouter{w: w, batches: make(map[int]*history.Table), rule: core.Rule{Contract: c}}
	r.init(topo)
	r.nbrs = make([][]int32, len(r.up))
	for id, nbs := range topo {
		row := make([]int32, len(nbs))
		for a, v := range nbs {
			row[a] = int32(v)
		}
		r.nbrs[id] = row[:game.SortUnique(row)]
	}
	r.avail = make([]float64, len(r.up))
	for id, a := range avail {
		if id >= 0 && int(id) < len(r.avail) {
			r.avail[id] = a
		}
	}
	r.view.r = r
	r.rule.View = &r.view
	return r
}

// CloseBatch implements BatchCloser: the batch's history goes.
// UtilityIIRouter.CloseBatch closes through it too.
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

// NextHop implements Router: Model I by the shared rule.
func (r *UtilityRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	next, _, deliver := r.route(core.Hop{Cur: self, Pred: pred, Initiator: initiator, Responder: responder, Prescribed: overlay.None}, batch, conn)
	return next, deliver
}

// route chooses the hop h of connection conn by core.Route, records it in
// the batch's history and returns it with the quality it was chosen at.
func (r *UtilityRouter) route(h core.Hop, batch, conn int) (overlay.NodeID, float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.Cur < 0 || int(h.Cur) >= len(r.nbrs) {
		return overlay.None, 1, true
	}
	r.view.h, r.view.conn = r.batches[batch], conn
	next, q, _ := core.Route(&r.rule, h, r.nbrs[h.Cur], r.up)
	if next == h.Responder {
		return overlay.None, 1, true
	}
	r.record(batch, conn, h.Cur, next)
	return next, q, false
}

// record adds the hop from→to of connection conn to the batch's history.
// Caller holds mu.
func (r *UtilityRouter) record(batch, conn int, from, to overlay.NodeID) {
	h := r.batches[batch]
	if h == nil {
		h = history.New(false)
		r.batches[batch] = h
	}
	h.Record(conn, overlay.None, from, to)
}

// UtilityIIRouter implements Utility Model II over the live runtime: at
// each hop it plays, through the shared rule (core.Route), the SPNE
// prescription of the bounded path game from itself to the responder over
// the topology snapshot — edge qualities from the same per-batch
// selectivity and static availability the Model-I router uses. A game
// row is the node's neighbor list, read in place at the base qualities,
// or — for a node the batch's history names an edge out of — the same
// list with a σ overlay; the solver applies the row rule itself
// (game.RowRule). The game covers the cone of cells the connection's play
// can reach (game.SolveFrom from its first holder and budget), solved
// once per (batch, conn), since qualities are stable within a
// connection. The router keeps the one game it solved last, and the
// connection it was solved for reads every later hop from it in place
// (game.PathGame.Cell). The cone itself is kept for the next connection
// of the batch: only σ changes between two, on the rows of the nodes the
// history names, so that connection re-solves only what reads them
// (game.PathGame.Refresh). Safe for concurrent use.
type UtilityIIRouter struct {
	*UtilityRouter

	// cacheMu guards everything below; it is taken before mu, never after.
	cacheMu sync.Mutex

	// The stage game and its storage, reused by every solve: the memo
	// SolveFrom fills, sized for the largest budget solved so far
	// (memoHops) so a shorter one reuses it.
	game     game.PathGame
	memo     game.Memo
	memoHops int
	// The kept solve: cone is the key of the latest solve, which filled
	// memo cold or refreshed the cone of the same key, and stage.conn its
	// connection; coneKept says memo still holds it.
	cone     coneKey
	coneKept bool
	// nbrQ[i] is aligned with nbrs[i]: the quality of an edge into each
	// neighbor that no connection of the batch has used, Edge(0, α). With
	// nbrs[i] it is node i's base row, which its game row reads in place.
	nbrQ [][]float64
	// routable[i]: node i is a key of the topology and believed alive —
	// the nodes that hold a row under the game's rule — set by every cold
	// solve; a liveness change forgets the cone, so no refresh needs it
	// anew.
	routable []bool
	// The latest solve: its batch's history and connection, the nodes
	// that history names an edge out of (holders), and holder[i], whether
	// i is one. Only those rows are scored anew, each into ovQ[i], a span
	// of overlay.
	stage   hopView
	holders []int32
	holder  []bool
	ovQ     [][]float64
	overlay []float64

	// SPNE read instrumentation, bound by Instrument (nil-safe when not).
	cacheHits, cacheMisses *telemetry.Counter
	coneCold, coneRefresh  *telemetry.Counter
	cellsCold, cellsFresh  *telemetry.Counter
}

// coneKey names a cone: everything a solve reads that the history and
// liveness do not. Two solves of one key read the same rows but for the
// σ overlays of the history's holders.
type coneKey struct {
	batch                       int
	start, initiator, responder overlay.NodeID
	budget                      int
}

// NewUtilityIIRouter builds a Model-II router over the topology snapshot.
func NewUtilityIIRouter(topo Topology, w quality.Weights, c core.Contract, avail map[overlay.NodeID]float64) *UtilityIIRouter {
	r := &UtilityIIRouter{UtilityRouter: NewUtilityRouter(topo, w, c, avail)}
	r.nbrQ = make([][]float64, len(r.nbrs))
	for i, nb := range r.nbrs {
		r.nbrQ[i] = make([]float64, len(nb))
		for a, j := range nb {
			r.nbrQ[i][a] = w.Edge(0, r.avail[j])
		}
	}
	r.holder = make([]bool, len(r.nbrs))
	r.routable = make([]bool, len(r.nbrs))
	r.ovQ = make([][]float64, len(r.nbrs))
	r.stage.r = r.UtilityRouter
	r.game = game.PathGame{
		Nodes: len(r.nbrs),
		Adjacency: func(i int) ([]int32, []float64) {
			if r.holder[i] {
				return r.nbrs[i], r.ovQ[i]
			}
			return r.nbrs[i], r.nbrQ[i]
		},
		Pf:   c.Pf,
		Pr:   c.Pr,
		Cost: r.rule.Cost,
	}
	return r
}

// Instrument binds the router's SPNE instruments into reg — reads served
// by the kept solve (hits) and reads that solved (misses), how each miss
// solved its cone, and the cells each kind of solve computed — so
// game-layer solve reuse is visible on the exposition endpoint. Call
// before traffic starts.
func (r *UtilityIIRouter) Instrument(reg *telemetry.Registry) {
	reg.Help(metricSPNECacheTotal, "SPNE prescriptions read from the kept solve (result=hit) vs solved fresh (result=miss)")
	reg.Help(metricSPNECone, "SPNE solves that solved their cone from nothing (kind=cold) vs re-solved the kept one (kind=refresh)")
	reg.Help(metricSPNECells, "stage-game cells computed by cold SPNE solves (kind=cold) vs recomputed by refreshes of the kept cone (kind=refresh)")
	r.cacheHits = reg.Counter(metricSPNECacheTotal, telemetry.Labels{"result": "hit"})
	r.cacheMisses = reg.Counter(metricSPNECacheTotal, telemetry.Labels{"result": "miss"})
	r.coneCold = reg.Counter(metricSPNECone, telemetry.Labels{"kind": "cold"})
	r.coneRefresh = reg.Counter(metricSPNECone, telemetry.Labels{"kind": "refresh"})
	r.cellsCold = reg.Counter(metricSPNECells, telemetry.Labels{"kind": "cold"})
	r.cellsFresh = reg.Counter(metricSPNECells, telemetry.Labels{"kind": "refresh"})
}

// MarkDead implements ChurnAware: besides excluding id from candidates,
// the kept solve is discarded — it may route through the corpse, and a
// reformed attempt must re-solve without it.
func (r *UtilityIIRouter) MarkDead(id overlay.NodeID) { r.setLiveness(id, false) }

// MarkLive implements ChurnAware; a kept solve without the returned peer
// is merely conservative, but dropping it lets routing use it again
// immediately.
func (r *UtilityIIRouter) MarkLive(id overlay.NodeID) { r.setLiveness(id, true) }

// setLiveness changes id's liveness and forgets the kept solve in one
// step under cacheMu, so that no solve reads the new liveness against a
// cone discovered under the old.
func (r *UtilityIIRouter) setLiveness(id overlay.NodeID, alive bool) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.liveness.set(id, alive)
	r.coneKept = false
}

// CloseBatch implements BatchCloser: the batch's history goes, and so
// does the kept solve if it is the batch's.
func (r *UtilityIIRouter) CloseBatch(batch int) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.UtilityRouter.CloseBatch(batch)
	if r.cone.batch == batch {
		r.coneKept = false
	}
}

// NextHop implements Router via SPNE play.
func (r *UtilityIIRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	next, _, deliver := r.nextHop(self, pred, initiator, responder, batch, conn, remaining)
	return next, deliver
}

// nextHop is NextHop that also returns the quality the hop was chosen at.
// A holder or responder outside the topology has no game to solve: the
// answer is "deliver", as UtilityRouter.route gives an unknown holder.
func (r *UtilityIIRouter) nextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, float64, bool) {
	if self < 0 || int(self) >= len(r.nbrs) || responder < 0 || int(responder) >= len(r.nbrs) {
		return overlay.None, 1, true
	}
	p := r.prescribed(self, initiator, responder, batch, conn, remaining)
	return r.route(core.Hop{Cur: self, Pred: pred, Initiator: initiator, Responder: responder, Prescribed: p}, batch, conn)
}

// prescribed returns the SPNE successor of self with remaining hops left
// in this connection's game, solving it unless the kept solve is this
// connection's and answers the read. The solve is rooted at the
// connection's first read — its initiator and full budget, before the
// first hop is recorded — and covers the cone of cells the play from
// there can reach. A connection read after another connection's solve, or
// after a liveness change, re-solves from where it stands, against the
// history as it stands now.
func (r *UtilityIIRouter) prescribed(self, initiator, responder overlay.NodeID, batch, conn, remaining int) overlay.NodeID {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if next, ok := r.kept(self, responder, batch, conn, remaining); ok {
		r.cacheHits.Inc()
		return next
	}
	r.cacheMisses.Inc()
	r.solve(self, initiator, responder, batch, conn, remaining)
	next, _ := r.kept(self, responder, batch, conn, remaining)
	return next
}

// kept reads the prescription for self with remaining hops left from the
// kept solve, if that solve is connection conn's of batch toward
// responder with a budget of at least remaining, and reports whether it
// held one. A node that holds no row, and R, read −1: they have no move
// at any stage, and the cone leaves out a keyless neighbor (rows drop
// it), yet a Model-I step can still reach it, and its read must not miss.
// Caller holds cacheMu.
func (r *UtilityIIRouter) kept(self, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	k := r.cone
	if !r.coneKept || r.stage.conn != conn || k.batch != batch || k.responder != responder || remaining > k.budget {
		return overlay.None, false
	}
	if d, ok := r.game.Cell(&r.memo, remaining, int(self)); ok {
		return overlay.NodeID(d.Next), true
	}
	return overlay.None, !r.routable[self] || self == responder
}

// refresh re-solves the kept cone in place if it is key's, and reports
// whether it did. Between two solves of one key only the rows of the
// history's holders change (σ moves with the connection's index and the
// batch's new hops); the rule and every other row are as they were when
// the cone was discovered, since a liveness change forgets the cone. A
// batch's history only grows, and CloseBatch forgets the batch's cone, so
// the holders of this solve include those of every solve since the cold
// one: they are the rows to re-read. Caller holds cacheMu and mu.
func (r *UtilityIIRouter) refresh(key coneKey) bool {
	if !r.coneKept || r.cone != key {
		return false
	}
	cells, ok := r.game.Refresh(&r.memo, r.holder)
	r.cellsFresh.Add(int64(cells))
	return ok
}

// solve solves, into r.memo, the cone of cells the play of connection
// conn of batch from (start, budget) to responder can reach, and keeps
// it; the next solve overwrites the memo. The game's rule gives a row
// only to a node that is a key of the topology and alive (routable) and
// not R, drops the node itself, I and every neighbor that holds no row,
// and adds the delivery edge (i, R) unless R is dead. σ is zero on every
// edge the batch's history does not name, where the score is the base
// quality; so only the rows of nodes the history names an edge out of
// get an overlay, scored w_s·σ + w_a·α before the solve. The solve holds
// mu throughout, so rows, history and liveness are read in one
// consistent state. When the memo still holds the cone of the same key,
// filled under the same liveness and rule, only the cells whose inputs
// moved are re-solved (refresh); otherwise the rule is set anew and the
// cone solved cold. Caller holds cacheMu.
func (r *UtilityIIRouter) solve(start, initiator, responder overlay.NodeID, batch, conn, budget int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := coneKey{batch, start, initiator, responder, budget}
	r.stage.h, r.stage.conn = r.batches[batch], conn
	for _, i := range r.holders {
		r.holder[i] = false
	}
	r.holders = r.stage.h.Tails(r.holders[:0], r.holder)
	r.overlay = r.overlay[:0]
	for _, i := range r.holders {
		lo := len(r.overlay)
		for _, j := range r.nbrs[i] {
			r.overlay = append(r.overlay, r.stage.Quality(overlay.NodeID(i), overlay.None, overlay.NodeID(j)))
		}
		r.ovQ[i] = r.overlay[lo:]
	}
	if r.refresh(key) {
		r.coneRefresh.Inc()
		return
	}
	for i, nb := range r.nbrs {
		r.routable[i] = nb != nil && r.up[i]
	}
	r.game.Responder = int(responder)
	r.game.Rule = game.RowRule{Holds: r.routable, Initiator: int(initiator), Deliver: r.up[responder]}
	r.memoHops = max(r.memoHops, budget)
	r.memo.Reset(len(r.nbrs), r.memoHops)
	cells := r.game.SolveFrom(&r.memo, int(start), budget)
	if !r.up[start] {
		// A holder believed dead has no row, yet its Model-I fallback
		// still forwards to one of its neighbors: the play goes on from
		// there. The memo then holds more than one cone, which Refresh
		// refuses.
		for _, j := range r.nbrs[start] {
			cells += r.game.SolveFrom(&r.memo, int(j), budget-1)
		}
	}
	r.cone, r.coneKept = key, true
	r.cellsCold.Add(int64(cells))
	r.coneCold.Inc()
}
