package faultsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// Cluster-artifact invariant names, alongside the single-process set.
const (
	// InvSpanOrphan: every non-root span's parent exists in the merged
	// log — the causal-merge completeness check across processes.
	InvSpanOrphan = "span-orphan"
)

// ClusterCredit is one owed line of a multi-process cluster batch: a
// forwarder, its accepted forwarding count for the batch, and the exact
// payoff float bits. Bits, not decimals, so equality is bit equality.
type ClusterCredit struct {
	Node       int    `json:"node"`
	Forwards   int    `json:"forwards"`
	PayoffBits uint64 `json:"payoff_bits"`
}

// ClusterBatch is one batch's outcome in a cluster run artifact: the
// pair, whether the batch failed, and the credits the contract says each
// forwarder is owed — one line per member of the forwarder set, so ‖π‖
// is len(Expected).
type ClusterBatch struct {
	Batch     int             `json:"batch"`
	Initiator int             `json:"initiator"`
	Responder int             `json:"responder"`
	Failed    bool            `json:"failed,omitempty"`
	Expected  []ClusterCredit `json:"expected,omitempty"`
}

// CheckClusterArtifact runs the post-run invariants over a merged
// multi-process artifact: per-batch results, the causally merged span
// log, and the total number of spans any recorder dropped. The plan
// supplies the contract to replay the payout rule against. It is the
// cross-process analogue of the single-world checkInvariants: the same
// invariant names report, but the evidence is collected artifacts, not
// live world state. What landed where is read from the span log alone:
// a settle span is emitted where a credit lands (Driver.Settled), and a
// hop span wherever a non-initiator station counts a forward.
func CheckClusterArtifact(p Plan, batches []ClusterBatch, spans []telemetry.Span, dropped int) []Violation {
	p = p.Normalize()
	var out violations
	add := out.add

	// (1) Settlement: every batch completes and settles.
	for _, b := range batches {
		if b.Failed {
			add(InvSettlement, "batch %d (%d→%d) failed", b.Batch, b.Initiator, b.Responder)
		}
	}

	// (2) Conservation: replay the payout rule m·P_f + P_r/‖π‖ over each
	// batch's forwarder set and demand the initiator's claim agree
	// bit-for-bit.
	contract := p.Contract()
	type line struct{ batch, node int }
	expected := make(map[line]ClusterCredit)
	initiator := make(map[int]int, len(batches))
	for _, b := range batches {
		initiator[b.Batch] = b.Initiator
		for _, e := range b.Expected {
			if want := contract.Payoff(e.Forwards, len(b.Expected)); math.Float64bits(want) != e.PayoffBits {
				add(InvConservation, "batch %d node %d: claimed payoff bits %016x, rule says %016x",
					b.Batch, e.Node, e.PayoffBits, math.Float64bits(want))
			}
			expected[line{b.Batch, e.Node}] = e
		}
	}

	// Capacity, orphans and path contiguity; the checks below read the
	// span log and are only meaningful over a complete one.
	if _, complete := checkSpanLog(&out, spans, uint64(dropped)); !complete {
		return out
	}

	// (3) What landed: one settle span per owed line and none elsewhere,
	// its detail carrying the owed bits in the one settle-detail form,
	// transport.SettleDetail, and the forwarder's own count of forwards —
	// its hop spans in the batch, away from the initiator — equal to the
	// owed line's. Lines are checked in ascending (batch, node) order, so
	// one artifact always reports the same list.
	settles := make(map[line]int)
	settleDetail := make(map[line]string)
	hops := make(map[line]int)
	for _, s := range spans {
		k := line{s.Batch, s.Node}
		switch s.Kind {
		case telemetry.SpanSettle:
			settles[k]++
			settleDetail[k] = s.Detail
		case telemetry.SpanHop:
			if i, ok := initiator[s.Batch]; ok && s.Node != i {
				hops[k]++
			}
		}
	}
	lines := make([]line, 0, len(expected)+len(settles))
	for k := range expected {
		lines = append(lines, k)
	}
	for k := range settles {
		if _, owed := expected[k]; !owed {
			lines = append(lines, k)
		}
	}
	slices.SortFunc(lines, func(a, b line) int { return cmp.Or(cmp.Compare(a.batch, b.batch), cmp.Compare(a.node, b.node)) })
	for _, k := range lines {
		e, owed := expected[k]
		n := settles[k]
		if !owed {
			add(InvConservation, "batch %d node %d: settle span %q but owed nothing", k.batch, k.node, settleDetail[k])
		}
		if n > 1 {
			add(InvDoubleSettle, "batch %d node %d: %d settle spans", k.batch, k.node, n)
		}
		if !owed {
			continue
		}
		switch {
		case n == 0:
			add(InvDoubleSettle, "batch %d node %d: no settle span for owed credit", k.batch, k.node)
		case settleDetail[k] != transport.SettleDetail(math.Float64frombits(e.PayoffBits)):
			add(InvDoubleSettle, "batch %d node %d: settle span detail %q, want bits %016x",
				k.batch, k.node, settleDetail[k], e.PayoffBits)
		}
		if hops[k] != e.Forwards {
			add(InvConservation, "batch %d node %d: %d hop spans, owed line says %d forwards",
				k.batch, k.node, hops[k], e.Forwards)
		}
	}
	return out
}

// checkSpanLog runs the checks both checkers make over a span log alone,
// and reports whether the log was complete. Capacity comes first: spans
// dropped by a recorder void every span-side check, so they are reported
// alone and the caller skips its own span-backed checks. Over a complete
// log, every non-root span's parent must be in it (no orphans: ids chain
// parent→child across process boundaries), and every deliver span's
// parent chain must be contiguous (spanPath). It returns the path each
// chain names, by connection, for a caller that knows what was delivered.
func checkSpanLog(out *violations, spans []telemetry.Span, dropped uint64) (map[connKey][]overlay.NodeID, bool) {
	if dropped > 0 {
		out.add(InvTraceCapacity, "%d spans dropped; span-backed invariants skipped", dropped)
		return nil, false
	}
	byID := make(map[telemetry.SpanID]telemetry.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	paths := make(map[connKey][]overlay.NodeID)
	for _, s := range spans {
		if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
			out.add(InvSpanOrphan, "span %s (%s, batch %d, node %d): parent %s not in log",
				s.ID, s.Kind, s.Batch, s.Node, s.Parent)
		}
		if s.Kind != telemetry.SpanDeliver {
			continue
		}
		path, err := spanPath(byID, s)
		if err != nil {
			out.add(InvContiguity, "batch %d conn %d: %v", s.Batch, s.Conn, err)
			continue
		}
		paths[connKey{s.Batch, s.Conn}] = path
	}
	return paths, true
}

// spanPath walks deliver span d back through its parents — the respond
// span, hop spans at positions n−2 … 0, then the launch of d's attempt —
// and returns the path the chain names, I first. A station emits a hop or
// respond span only for a FORWARD the link delivered to it, and each id
// hashes its parent's, so the chain names exactly the stations that
// carried the delivering attempt.
func spanPath(byID map[telemetry.SpanID]telemetry.Span, d telemetry.Span) ([]overlay.NodeID, error) {
	s, ok := byID[d.Parent]
	if !ok || s.Kind != telemetry.SpanRespond || s.Hop < 1 {
		return nil, fmt.Errorf("deliver span %s does not parent on a respond span past hop 0", d.ID)
	}
	path := make([]overlay.NodeID, s.Hop+1)
	for h := s.Hop; ; h-- {
		path[h] = overlay.NodeID(s.Node)
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return nil, fmt.Errorf("%s span at hop %d: parent %s not in log", s.Kind, h, s.Parent)
		case h > 0 && (p.Kind != telemetry.SpanHop || p.Hop != h-1):
			return nil, fmt.Errorf("%s span at hop %d: parent is %s at hop %d, want hop at %d", s.Kind, h, p.Kind, p.Hop, h-1)
		case h == 0 && (p.Kind != telemetry.SpanLaunch || p.Trace != d.Trace || p.Conn != d.Conn || p.Attempt != d.Attempt):
			return nil, fmt.Errorf("hop 0: parent is %s of conn %d attempt %d, want the launch of conn %d attempt %d",
				p.Kind, p.Conn, p.Attempt, d.Conn, d.Attempt)
		case h == 0:
			return path, nil
		}
		s = p
	}
}
