package faultsim

import (
	"fmt"
	"math"

	"p2panon/internal/core"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// Cluster-artifact invariant names, alongside the single-process set.
const (
	// InvSpanOrphan: every non-root span's parent exists in the merged
	// log — the causal-merge completeness check across processes.
	InvSpanOrphan = "span-orphan"
)

// ClusterCredit is one settle line of a multi-process cluster run: a
// forwarder, its accepted forwarding count for the batch, and the exact
// payoff float bits. Bits, not decimals, so equality is bit equality.
type ClusterCredit struct {
	Batch      int    `json:"batch"`
	Node       int    `json:"node"`
	Forwards   int    `json:"forwards"`
	PayoffBits uint64 `json:"payoff_bits"`
}

// ClusterBatch is one batch's outcome in a cluster run artifact: the
// pair, the forwarder-set size, whether the batch failed, and the
// credits the contract says each forwarder is owed.
type ClusterBatch struct {
	Batch     int             `json:"batch"`
	Initiator int             `json:"initiator"`
	Responder int             `json:"responder"`
	SetSize   int             `json:"setsize"`
	Failed    bool            `json:"failed,omitempty"`
	Expected  []ClusterCredit `json:"expected,omitempty"`
}

// CheckClusterArtifact runs the post-run invariants over a merged
// multi-process artifact: per-batch results, the credits every worker
// observed landing on its nodes, the causally merged span log, and the
// total number of spans any recorder dropped. The plan supplies the
// contract to replay the payout rule against. It is the cross-process
// analogue of the single-world checkInvariants: the same invariant
// names report, but the evidence is collected artifacts, not live
// world state.
func CheckClusterArtifact(p Plan, batches []ClusterBatch, observed []ClusterCredit, spans []telemetry.Span, dropped int) []Violation {
	p = p.Normalize()
	var out []Violation
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// (1) Settlement: every batch completes and settles.
	for _, b := range batches {
		if b.Failed {
			add(InvSettlement, "batch %d (%d→%d) failed", b.Batch, b.Initiator, b.Responder)
		}
	}

	// (2) Conservation: replay the payout rule m·P_f + P_r/‖π‖ over each
	// batch's forwarder set and demand both the initiator's claim and the
	// workers' observations agree bit-for-bit.
	type line struct{ batch, node int }
	expected := make(map[line]ClusterCredit)
	for _, b := range batches {
		for _, e := range b.Expected {
			if b.SetSize > 0 {
				want := core.Contract{Pf: float64(p.Pf), Pr: float64(p.Pr)}.Payoff(e.Forwards, b.SetSize)
				if math.Float64bits(want) != e.PayoffBits {
					add(InvConservation, "batch %d node %d: claimed payoff bits %016x, rule says %016x",
						b.Batch, e.Node, e.PayoffBits, math.Float64bits(want))
				}
			}
			expected[line{b.Batch, e.Node}] = e
		}
	}
	seen := make(map[line]ClusterCredit)
	for _, o := range observed {
		k := line{o.Batch, o.Node}
		if _, dup := seen[k]; dup {
			add(InvDoubleSettle, "batch %d node %d observed twice", o.Batch, o.Node)
			continue
		}
		seen[k] = o
		e, ok := expected[k]
		if !ok {
			add(InvConservation, "batch %d node %d: credited %016x but owed nothing", o.Batch, o.Node, o.PayoffBits)
			continue
		}
		if o.PayoffBits != e.PayoffBits || o.Forwards != e.Forwards {
			add(InvConservation, "batch %d node %d: observed (%d fwd, %016x), expected (%d fwd, %016x)",
				o.Batch, o.Node, o.Forwards, o.PayoffBits, e.Forwards, e.PayoffBits)
		}
	}
	for k, e := range expected {
		if _, ok := seen[k]; !ok {
			add(InvConservation, "batch %d node %d: owed %016x, nothing landed", k.batch, k.node, e.PayoffBits)
		}
	}

	// (3) Double-settle, from the span side: at most one settle span per
	// (batch, node), exactly one per expected line, detail carrying the
	// owed bits in the one settle-detail form, transport.SettleDetail.
	settles := make(map[line]int)
	settleDetail := make(map[line]string)
	for _, s := range spans {
		if s.Kind != telemetry.SpanSettle {
			continue
		}
		k := line{s.Batch, s.Node}
		settles[k]++
		settleDetail[k] = s.Detail
	}
	for k, n := range settles {
		if n > 1 {
			add(InvDoubleSettle, "batch %d node %d: %d settle spans", k.batch, k.node, n)
		}
	}
	for k, e := range expected {
		switch n := settles[k]; {
		case n == 0:
			add(InvDoubleSettle, "batch %d node %d: no settle span for owed credit", k.batch, k.node)
		case settleDetail[k] != transport.SettleDetail(math.Float64frombits(e.PayoffBits)):
			add(InvDoubleSettle, "batch %d node %d: settle span detail %q, want bits %016x",
				k.batch, k.node, settleDetail[k], e.PayoffBits)
		}
	}

	// (4) Path contiguity: a delivery at hop h is backed by hop spans at
	// every hop 1..h-1 of the same (trace, conn) — no process's leg of
	// the path is missing from the merge.
	type leg struct {
		trace telemetry.SpanID
		conn  int
		hop   int
	}
	hops := make(map[leg]bool)
	for _, s := range spans {
		if s.Kind == telemetry.SpanHop {
			hops[leg{s.Trace, s.Conn, s.Hop}] = true
		}
	}
	for _, s := range spans {
		if s.Kind != telemetry.SpanRespond {
			continue
		}
		for h := 1; h < s.Hop; h++ {
			if !hops[leg{s.Trace, s.Conn, h}] {
				add(InvContiguity, "trace %s conn %d: respond at hop %d but no hop span at %d",
					s.Trace, s.Conn, s.Hop, h)
			}
		}
	}

	// (5) Orphans: ids chain parent→child across process boundaries, so
	// after a complete merge every non-root parent must resolve.
	ids := make(map[telemetry.SpanID]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			add(InvSpanOrphan, "span %s (%s, batch %d, node %d): parent %s not in merged log",
				s.ID, s.Kind, s.Batch, s.Node, s.Parent)
		}
	}

	// (6) Capacity: a recorder that dropped spans voids the span-side
	// checks above, so it is its own violation.
	if dropped > 0 {
		add(InvTraceCapacity, "%d spans dropped across workers", dropped)
	}

	return out
}
