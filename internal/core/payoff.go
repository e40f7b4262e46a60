package core

import (
	"sort"

	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
)

// NodePayoff is one forwarder's settled outcome for a batch: m forwarding
// instances earn Income = m·P_f + P_r/‖π‖; Cost is the participation cost
// plus accumulated transmission costs; Net = Income − Cost is the realised
// utility.
type NodePayoff struct {
	Node      overlay.NodeID
	Malicious bool
	Forwards  int
	Income    float64
	Cost      float64
	Net       float64
}

// Settle computes the payoff of every forwarder in the batch's forwarder
// set under the paper's rule. It can be called at any point; the paper's
// initiator pays only after all k connections complete, so callers
// normally settle once at the end of the batch. Results are sorted by
// node ID.
func (b *Batch) Settle() []NodePayoff {
	ph := b.sys.Prof.Start(telemetry.PhaseEscrowSettle)
	defer ph.End()
	size := b.fset.Size()
	if size == 0 {
		return nil
	}
	out := make([]NodePayoff, 0, size)
	for _, id := range b.fset.Members() {
		m := b.forwards[id]
		income := b.Contract.Payoff(m, size)
		cost := b.sys.cfg.Cost.Participation + b.transmissionCost(id)
		out = append(out, NodePayoff{
			Node:      id,
			Malicious: b.sys.Net.Node(id).Malicious,
			Forwards:  m,
			Income:    income,
			Cost:      cost,
			Net:       income - cost,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// transmissionCost sums C^t over the successors id actually forwarded to,
// ascending, reconstructed from the batch's history: id's own rows.
func (b *Batch) transmissionCost(id overlay.NodeID) float64 {
	total := 0.0
	for _, succ := range b.hist.Successors(id) {
		uses := b.hist.Uses(id, succ)
		total += float64(uses) * b.sys.cfg.Cost.Transmission(int(id), int(succ))
	}
	return total
}

// AnonymityA is the paper's A(‖π‖) anonymity-value function used in the
// initiator's utility U_I = A(‖π‖) − ‖π‖·P_f − P_r. The paper states only
// that A increases as ‖π‖ decreases; we use the normalised form
// A(x) = A0·L/x, consistent with the path-quality metric Q(π) = L/‖π‖.
func AnonymityA(a0, avgLen float64, forwarderSet int) float64 {
	if forwarderSet <= 0 {
		return a0 * avgLen
	}
	return a0 * avgLen / float64(forwarderSet)
}

// InitiatorUtility returns U_I for this batch: A(‖π‖) minus the payments
// the initiator makes. The paper charges ‖π‖·P_f in its formulation (each
// member of the forwarder set is paid per instance; with m totals this is
// Σm·P_f — we report the paper's literal form alongside the exact total).
func (b *Batch) InitiatorUtility(a0 float64) float64 {
	size := b.fset.Size()
	return AnonymityA(a0, b.fset.AvgLen(), size) - float64(size)*b.Contract.Pf - b.Contract.Pr
}

// TotalPaid returns the initiator's exact outlay: Σ_i m_i·P_f + P_r
// (the routing benefit is fully distributed whenever ‖π‖ > 0).
func (b *Batch) TotalPaid() float64 {
	if b.fset.Size() == 0 {
		return 0
	}
	totalForwards := 0
	for _, m := range b.forwards {
		totalForwards += m
	}
	return float64(totalForwards)*b.Contract.Pf + b.Contract.Pr
}

// GoodPayoffs filters Settle() down to non-malicious forwarders.
func (b *Batch) GoodPayoffs() []NodePayoff {
	all := b.Settle()
	out := all[:0]
	for _, p := range all {
		if !p.Malicious {
			out = append(out, p)
		}
	}
	return out
}

// Close forgets the batch's history — the paper settles and discards
// batch state once the initiator has paid (§2.2's payment "only after all
// the connections in π are completed"). Call after Settle; further
// RunConnection calls would rebuild history from scratch. The cost is the
// batch's own state; the system's shared solve state is released when the
// last open batch closes.
func (b *Batch) Close() {
	b.hist = nil
	// The dropped history backs any solve stamped for this batch; a
	// (hypothetical) later connection must not resurrect it.
	b.spneStamp = spneStamp{}
	if !b.closed {
		b.closed = true
		if b.sys.open--; b.sys.open == 0 {
			b.sys.releaseSolve()
		}
	}
}
