package core

import (
	"slices"

	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
)

// View is what the routing rule reads of the world besides the holder's
// neighbour list: how the holder scores an edge and who agrees to forward.
// The simulator's Batch and the live routers implement it.
type View interface {
	// Quality returns q(cur, v) = w_s·σ + w_a·α for the edge cur→v. pred
	// is the holder's predecessor for a position-aware score (§2.3), or
	// overlay.None for the position-free score of Model II's stage game.
	Quality(cur, pred, v overlay.NodeID) float64
	// Accepts reports whether v agrees to forward for the batch.
	Accepts(v overlay.NodeID) bool
}

// Hop is one routing decision: the holder, its predecessor (overlay.None
// at the initiator) and the batch's endpoints. Prescribed is Model II's
// SPNE successor for the holder and its remaining budget, or a negative
// id when the holder plays Model I.
type Hop struct {
	Cur, Pred, Initiator, Responder, Prescribed overlay.NodeID
}

// Rule is the forwarding rule of §2.4, written once: the simulator's
// batches and the live routers choose every hop through Route. The zero
// TopKJitter is the paper's pure argmax.
type Rule struct {
	View     View
	Contract Contract
	Cost     game.CostModel
	// TopKJitter and Rng are Config.TopKJitter's §5 countermeasure.
	TopKJitter int
	Rng        interface{ Intn(int) int }
	// Prof, when non-nil, times the candidate filter under
	// overlay.candidates.
	Prof *telemetry.PhaseProfiler

	// Per-hop scratch, reused so a hop allocates nothing.
	cands  []overlay.NodeID
	scored []scoredCand
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

// Candidates appends to out the holder's forwarding candidates: the
// neighbours in nbrs that are up, other than the holder itself, its
// predecessor, I and R. (R is reached by explicit delivery; routing back
// through I would reveal nothing useful and unbalance the length
// normalisation.) up is indexed by node id and covers every id in nbrs.
func Candidates[T ~int | ~int32](out []overlay.NodeID, h Hop, nbrs []T, up []bool) []overlay.NodeID {
	for _, j := range nbrs {
		v := overlay.NodeID(j)
		if v == h.Pred || v == h.Responder || v == h.Initiator || v == h.Cur || !up[v] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Route picks the holder's successor among its Candidates and returns it
// with the edge quality it was chosen at and how many forwarding requests
// were declined on the way; it returns R with quality 1 when the holder
// delivers. With no candidate the holder delivers. A Model-II holder plays
// its prescription — delivering if that is R — unless the prescription is
// an immediate return to its predecessor (the SPNE table is computed over
// walks) or its target declines; then, like a Model-I holder, it walks the
// candidates in descending U_i(j) = P_f + q·P_r − (C^p + C^t(i, j)) (ties
// to higher q, then lower id) and forwards to the first that accepts,
// delivering if none does.
func Route[T ~int | ~int32](r *Rule, h Hop, nbrs []T, up []bool) (next overlay.NodeID, q float64, declined int) {
	ph := r.Prof.StartTimer(telemetry.PhaseOverlayCandidates)
	r.cands = Candidates(r.cands[:0], h, nbrs, up)
	ph.End()
	if len(r.cands) == 0 {
		return h.Responder, 1, 0
	}
	if p := h.Prescribed; p >= 0 && p != h.Pred {
		if p == h.Responder {
			return p, 1, 0
		}
		if r.View.Accepts(p) {
			return p, r.View.Quality(h.Cur, overlay.None, p), 0
		}
		declined++
	}
	scored := r.scored[:0]
	for _, v := range r.cands {
		q := r.View.Quality(h.Cur, h.Pred, v)
		u := r.Contract.Pf + q*r.Contract.Pr -
			(r.Cost.Participation + r.Cost.Transmission(int(h.Cur), int(v)))
		scored = append(scored, scoredCand{id: v, u: u, q: q})
	}
	r.scored = scored
	// Insertion sort: the order is strict and total, so this matches any
	// correct sort, without sort.Slice's closure allocation per hop.
	for i := 1; i < len(scored); i++ {
		for j := i; j > 0 && scoredLess(scored[j], scored[j-1]); j-- {
			scored[j], scored[j-1] = scored[j-1], scored[j]
		}
	}
	// §5 availability-attack countermeasure: jitter the argmax across the
	// top-K candidates so an always-online adversary cannot
	// deterministically park itself on the stable path.
	if k := min(r.TopKJitter, len(scored)); k > 1 {
		pick := r.Rng.Intn(k)
		scored[0], scored[pick] = scored[pick], scored[0]
	}
	for _, s := range scored {
		if r.View.Accepts(s.id) {
			return s.id, s.q, declined
		}
		declined++
	}
	return h.Responder, 1, declined
}

// Rows is a Model-II stage game's adjacency (game.PathGame.Adjacency) and
// delivery edges (Deliver), built row by row on first use so that a cone
// solve (game.SolveFrom) builds the rows of the cone's nodes at stage 2
// and above only. The simulator's solve and the live Model-II router both
// build their rows through it, and it holds the one delivery rule they
// share: node i holds a row iff it is up (Reset's up) and not R, and a
// row holds the delivery edge (i, R), at the literal quality 1 of the
// last-edge rule, iff R can be delivered to (Reset's deliver). Every
// successor other than R in a row holds a row itself (Build), so Deliver
// is one value over a row's node and its successors — the contract
// SolveFrom's closed-form stage 2 rests on.
type Rows struct {
	// Fill builds node i's row through Build; Adjacency calls it on the
	// row's first use since the last Reset, for a node that holds one.
	Fill func(i int)

	resp    int32
	deliver bool
	up      []bool
	built   []bool
	off, n  []int32
	succ    []int32
	qual    []float64
}

// Reset forgets every row and sizes the builder for nodes vertices, for
// the game whose responder is resp; deliver says whether R can be
// delivered to, and up[i] whether node i is known to the game and up (an
// id past its end is not). up is read, never written, until the next
// Reset.
func (r *Rows) Reset(nodes int, resp int32, deliver bool, up []bool) {
	if len(r.built) != nodes {
		r.built = make([]bool, nodes)
		r.off, r.n = make([]int32, nodes), make([]int32, nodes)
	}
	clear(r.built) // one byte per node: noise beside the solve it serves
	r.succ, r.qual = r.succ[:0], r.qual[:0]
	r.resp, r.deliver, r.up = resp, deliver, up
}

// Holds reports whether node i has a row at all: it is up and not R.
func (r *Rows) Holds(i int) bool { return int32(i) != r.resp && i < len(r.up) && r.up[i] }

// Adjacency returns the stage game's Adjacency over these rows: node i's
// candidate successors, ascending, with their edge qualities; a node that
// holds no row has none. It is a closure, not a method value, so that a
// solve's per-cell lookup is one call.
func (r *Rows) Adjacency() func(i int) ([]int32, []float64) {
	return func(i int) ([]int32, []float64) {
		if !r.built[i] {
			if r.Holds(i) {
				r.Fill(i)
			} else {
				r.built[i], r.off[i], r.n[i] = true, 0, 0
			}
		}
		lo, hi := r.off[i], r.off[i]+r.n[i]
		return r.succ[lo:hi], r.qual[lo:hi]
	}
}

// Deliver returns the stage game's Deliver over these rows: 1 when node
// i's row holds the delivery edge, −1 otherwise — read from the rule, so
// no row is built.
func (r *Rows) Deliver() func(i int) float64 {
	return func(i int) float64 {
		if r.deliver && r.Holds(i) {
			return 1
		}
		return -1
	}
}

// Build builds node i's row from its base row — its neighbours ascending
// and duplicate free, each with the quality of an edge no history names,
// Weights.Edge(0, α). It drops i itself, skip (the initiator) and every
// neighbour that holds no row — R, and any node Reset's up does not
// report, by the predicate Deliver reads — so every successor other than
// R holds a row (a row-less one could never continue anyway: its
// quality-to-go is −∞ at every stage). It puts the delivery edge (i, R),
// when the rule gives i one, with the literal quality 1 at R's ascending
// position: the sparse induction then visits successors in exactly the
// order a dense scan over j would, so every epsilon tie-break lands
// identically. The row is returned for the caller to rescore, in place,
// the edges its batch's history names.
func (r *Rows) Build(i int, base []int32, baseQ []float64, skip int32) ([]int32, []float64) {
	lo, hi := len(r.succ), len(r.succ)+len(base)+1
	if hi > cap(r.succ) || hi > cap(r.qual) {
		r.succ, r.qual = slices.Grow(r.succ, hi-lo), slices.Grow(r.qual, hi-lo)
	}
	succ, qual := r.succ[lo:hi], r.qual[lo:hi]
	resp, deliver := r.resp, r.deliver
	w := 0
	for a, j := range base {
		if deliver && j >= resp {
			succ[w], qual[w] = resp, 1
			w++
			deliver = false
		}
		if j == int32(i) || j == skip || !r.Holds(int(j)) {
			continue
		}
		succ[w], qual[w] = j, baseQ[a]
		w++
	}
	if deliver {
		succ[w], qual[w] = resp, 1
		w++
	}
	r.succ, r.qual = r.succ[:lo+w], r.qual[:lo+w]
	r.built[i] = true
	r.off[i], r.n[i] = int32(lo), int32(w)
	return succ[:w], qual[:w]
}
