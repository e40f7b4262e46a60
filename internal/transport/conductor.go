package transport

import (
	"time"

	"p2panon/internal/core"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
)

// Conductor is the backend-independent surface of a live forwarding
// runtime: everything experiment.RunLive, the churn hooks and the
// conformance suite need to drive traffic, without caring whether the
// links are an in-process queue (*Network) or real TCP sockets
// (netwire.Cluster). Both backends implement exactly this surface, and
// the shared conformance suite (internal/conformance) executes the same
// behavioral table against each so the two can never drift.
type Conductor interface {
	// Join adds a peer with the given router; RemovePeer models an
	// abrupt departure (a crash as the failure detector sees it).
	Join(id overlay.NodeID, r Router) error
	RemovePeer(id overlay.NodeID)

	// ConnectDetail runs one connection and reports how many path
	// reformations it needed; RunBatch runs a batch of them. An
	// interleaved trace replays through RunTrace(cd.ConnectDetail, …).
	ConnectDetail(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration) ([]overlay.NodeID, int, error)
	RunBatch(initiator, responder overlay.NodeID, batch, k, budget int, timeout time.Duration) (*BatchOutcome, error)

	// RunSecureBatch is RunBatch under the §5 protocol: k
	// contract-carrying connections, forwarder-sealed path records,
	// initiator-side validation with the batch key. SettleBatch
	// distributes a completed batch's split payment and returns how many
	// forwarders were notified; wherever it lands, Driver.Settled closes,
	// counts and spans it.
	RunSecureBatch(initiator, responder overlay.NodeID, contract *onion.SignedContract, bk *onion.BatchKey, k, budget int, timeout time.Duration) (*BatchOutcome, error)
	SettleBatch(initiator overlay.NodeID, batch int, out *BatchOutcome, contract core.Contract) (int, error)

	// Instrument rebinds metrics into a shared registry; Metrics returns
	// the common counter snapshot, which MetricsSnapshot.Delta windows.
	Instrument(reg *telemetry.Registry)
	Metrics() MetricsSnapshot

	// SetSpans attaches the causal span recorder (nil disables), the one
	// lifecycle record: every connection then emits a deterministic span
	// tree whose ids derive from causal coordinates, not arrival order.
	SetSpans(r *telemetry.SpanRecorder)

	// SetRetry configures reformation behaviour: attempts and backoff.
	SetRetry(RetryPolicy)

	// Close shuts the runtime down and waits for any goroutines it
	// started.
	Close()
}

var _ Conductor = (*Network)(nil)
