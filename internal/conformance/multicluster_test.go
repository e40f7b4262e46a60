package conformance

import (
	"fmt"
	"sync"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/netwire"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// MultiCluster is a world of nodes partitioned across several distinct
// netwire runtimes: node id modulo the part count picks the hosting
// Cluster, every other part learns the node through dial-back address
// registration, and frames between parts cross real TCP between
// separate listener/link runtimes — the in-process model of the
// multi-process cluster (clusterd workers run exactly one part each).
// It implements transport.Conductor, so the partitioned topology runs
// the same behavioral table as the single-runtime backends and must
// produce byte-identical transcripts and span logs.
type MultiCluster struct {
	parts []*netwire.Cluster

	mu    sync.RWMutex
	owner map[overlay.NodeID]int
}

// NewMultiCluster builds n empty parts sharing one metrics registry —
// the shared registry deduplicates instruments by name, so the counter
// snapshot aggregates across parts exactly like a single cluster's.
func NewMultiCluster(n int, cfg netwire.Config) *MultiCluster {
	if n < 1 {
		n = 1
	}
	reg := telemetry.NewRegistry()
	m := &MultiCluster{owner: make(map[overlay.NodeID]int)}
	for i := 0; i < n; i++ {
		c := netwire.NewCluster(cfg)
		c.Instrument(reg)
		m.parts = append(m.parts, c)
	}
	return m
}

// partOf returns the part hosting (or designated to host) id.
func (m *MultiCluster) partOf(id overlay.NodeID) *netwire.Cluster {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if p, ok := m.owner[id]; ok {
		return m.parts[p]
	}
	return m.parts[int(id)%len(m.parts)]
}

// Join adds the node to its part and registers its dial-back address
// with every other part.
func (m *MultiCluster) Join(id overlay.NodeID, r transport.Router) error {
	p := int(id) % len(m.parts)
	if err := m.parts[p].Join(id, r); err != nil {
		return err
	}
	m.mu.Lock()
	m.owner[id] = p
	m.mu.Unlock()
	addr := m.parts[p].Node(id).Addr()
	for i, c := range m.parts {
		if i != p {
			c.RegisterPeer(id, addr)
		}
	}
	return nil
}

// RemovePeer kills the node at its owning part. The other parts keep
// their directory entries, so dials fail — the same failure-detection
// signal a single cluster gives.
func (m *MultiCluster) RemovePeer(id overlay.NodeID) {
	m.partOf(id).RemovePeer(id)
}

// ConnectDetail delegates to the initiator's runtime; the responder may
// live in any part. An interleaved trace replays through
// transport.RunTrace(m.ConnectDetail, …), each connection dispatched to
// its initiator's part.
func (m *MultiCluster) ConnectDetail(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration) ([]overlay.NodeID, int, error) {
	return m.partOf(initiator).ConnectDetail(initiator, responder, batch, conn, budget, timeout)
}

// RunBatch delegates to the initiator's runtime.
func (m *MultiCluster) RunBatch(initiator, responder overlay.NodeID, batch, k, budget int, timeout time.Duration) (*transport.BatchOutcome, error) {
	return m.partOf(initiator).RunBatch(initiator, responder, batch, k, budget, timeout)
}

// RunSecureBatch delegates to the initiator's runtime; forwarders in
// other parts verify the contract carried in the frames like any
// remote peer.
func (m *MultiCluster) RunSecureBatch(initiator, responder overlay.NodeID, contract *onion.SignedContract, bk *onion.BatchKey, k, budget int, timeout time.Duration) (*transport.BatchOutcome, error) {
	return m.partOf(initiator).RunSecureBatch(initiator, responder, contract, bk, k, budget, timeout)
}

// SettleBatch delegates to the initiator's runtime; settle frames cross
// parts to wherever each forwarder lives.
func (m *MultiCluster) SettleBatch(initiator overlay.NodeID, batch int, out *transport.BatchOutcome, contract core.Contract) (int, error) {
	return m.partOf(initiator).SettleBatch(initiator, batch, out, contract)
}

// Node returns the live node, searching the parts.
func (m *MultiCluster) Node(id overlay.NodeID) *netwire.Node {
	return m.partOf(id).Node(id)
}

// Instrument rebinds every part into reg (shared instruments aggregate).
func (m *MultiCluster) Instrument(reg *telemetry.Registry) {
	for _, c := range m.parts {
		c.Instrument(reg)
	}
}

// Metrics returns the aggregated snapshot — every part reads the same
// shared instruments, so any part's view is the whole world's.
func (m *MultiCluster) Metrics() transport.MetricsSnapshot { return m.parts[0].Metrics() }

// SetRetry fans the reformation policy out to every part.
func (m *MultiCluster) SetRetry(p transport.RetryPolicy) {
	for _, c := range m.parts {
		c.SetRetry(p)
	}
}

// SetSpans attaches one shared span recorder to every part: ids derive
// from causal coordinates carried in the frames, so which part records
// a span first never shows in the canonical log.
func (m *MultiCluster) SetSpans(r *telemetry.SpanRecorder) {
	for _, c := range m.parts {
		c.SetSpans(r)
	}
}

// Close closes every part.
func (m *MultiCluster) Close() {
	for _, c := range m.parts {
		c.Close()
	}
}

var _ transport.Conductor = (*MultiCluster)(nil)

// String names the topology for error messages.
func (m *MultiCluster) String() string { return fmt.Sprintf("multicluster(%d parts)", len(m.parts)) }
