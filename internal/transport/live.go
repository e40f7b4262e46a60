package transport

import (
	"time"

	"p2panon/internal/overlay"
	"p2panon/internal/trace"
)

// TraceOptions parameterises a live replay of a trace workload.
type TraceOptions struct {
	// Budget is the per-connection hop budget; Timeout the per-connection
	// deadline (shared by all reformation attempts of that connection).
	Budget  int
	Timeout time.Duration
	// Before, if non-nil, is called before scheduled connection k
	// (0-based) with the partial result so far — the hook churn studies
	// use to remove peers mid-run.
	Before func(k int, sofar *TraceResult)
}

// TraceResult aggregates a live replay: one BatchOutcome per pair
// (index-aligned with the input), connection and reformation totals.
type TraceResult struct {
	Outcomes          []*BatchOutcome
	Completed, Failed int
	Reformations      int
}

// RunTrace replays a trace workload through connect — any runtime's
// ConnectDetail: the pairs' recurring connections are interleaved
// round-robin (trace.Interleave), so batches progress together the way
// concurrent initiators would, while each pair's own connections stay
// ordered. A connection that fails even after reformation is counted and
// skipped — live churn must not abort the rest of the workload.
func RunTrace(connect func(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration) ([]overlay.NodeID, int, error), pairs []trace.Pair, opt TraceOptions) *TraceResult {
	res := &TraceResult{Outcomes: make([]*BatchOutcome, len(pairs))}
	for i := range res.Outcomes {
		res.Outcomes[i] = NewBatchOutcome()
	}
	for k, c := range trace.Interleave(pairs) {
		if opt.Before != nil {
			opt.Before(k, res)
		}
		p := &pairs[c.Pair]
		out := res.Outcomes[c.Pair]
		path, reforms, err := connect(p.Initiator, p.Responder, p.Index+1, c.Conn, opt.Budget, opt.Timeout)
		res.Reformations += reforms
		out.Reformations += reforms
		if err != nil {
			res.Failed++
			continue
		}
		res.Completed++
		out.Record(path, p.Initiator)
	}
	return res
}
