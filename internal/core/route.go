package core

import (
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
