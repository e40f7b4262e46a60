package transport

import (
	"fmt"

	"p2panon/internal/telemetry"
)

// Transport metric names as exposed on the Prometheus endpoint. The
// connect outcome counters share one family, split by a result label.
const (
	metricMessagesTotal     = "transport_messages_total" // label kind: sent|dropped|expired
	metricNacksTotal        = "transport_nacks_total"    //
	metricContractRejects   = "transport_contract_rejects_total"
	metricTimeoutsTotal     = "transport_timeouts_total"
	metricReformationsTotal = "transport_reformations_total"
	metricConnectionsTotal  = "transport_connections_total" // label result: ok|fail
	metricInboxHighWater    = "transport_inbox_high_water"
	metricConnectLatency    = "transport_connect_latency_seconds"
	metricPathLength        = "transport_path_length_hops"
	metricNackHops          = "transport_nack_hops"
	metricSPNECacheTotal    = "transport_spne_cache_total" // label result: hit|miss
	metricSPNECacheEntries  = "transport_spne_cache_entries"
	metricSPNECacheEvicted  = "transport_spne_cache_evictions_total"
)

// Metrics is the runtime's instrument set, founded on a
// telemetry.Registry: atomic counters for every protocol event, a
// high-water gauge for inbox depth, and log-scale histograms for connect
// latency, realised path length and hops-progressed-per-NACK — the
// distributions §3's evaluation is built on. Updated lock-free by every
// peer goroutine; read via Network.Metrics(), which returns a
// consistent-enough MetricsSnapshot (counters are independent; no
// cross-counter invariant is guaranteed mid-flight).
type Metrics struct {
	reg *telemetry.Registry

	sent            *telemetry.Counter
	dropped         *telemetry.Counter
	expired         *telemetry.Counter
	nacks           *telemetry.Counter
	contractRejects *telemetry.Counter
	timeouts        *telemetry.Counter
	reformations    *telemetry.Counter
	connects        *telemetry.Counter
	failures        *telemetry.Counter
	inboxHighWater  *telemetry.Gauge
	connectLatency  *telemetry.Histogram
	pathLen         *telemetry.Histogram
	nackHops        *telemetry.Histogram
}

// newMetrics binds the transport instrument set into reg. Two networks
// instrumented into the same registry share series (their counts sum).
func newMetrics(reg *telemetry.Registry) *Metrics {
	reg.Help(metricMessagesTotal, "messages handed to links (kind=sent), lost to departed peers (kind=dropped) or dead past their attempt deadline (kind=expired)")
	reg.Help(metricConnectionsTotal, "connections terminally completed (result=ok) or abandoned (result=fail)")
	reg.Help(metricConnectLatency, "end-to-end connect latency including reformations")
	reg.Help(metricPathLength, "realised path length in nodes (I..R inclusive)")
	reg.Help(metricNackHops, "hops a path had progressed when a NACK was generated")
	return &Metrics{
		reg:             reg,
		sent:            reg.Counter(metricMessagesTotal, telemetry.Labels{"kind": "sent"}),
		dropped:         reg.Counter(metricMessagesTotal, telemetry.Labels{"kind": "dropped"}),
		expired:         reg.Counter(metricMessagesTotal, telemetry.Labels{"kind": "expired"}),
		nacks:           reg.Counter(metricNacksTotal, nil),
		contractRejects: reg.Counter(metricContractRejects, nil),
		timeouts:        reg.Counter(metricTimeoutsTotal, nil),
		reformations:    reg.Counter(metricReformationsTotal, nil),
		connects:        reg.Counter(metricConnectionsTotal, telemetry.Labels{"result": "ok"}),
		failures:        reg.Counter(metricConnectionsTotal, telemetry.Labels{"result": "fail"}),
		inboxHighWater:  reg.Gauge(metricInboxHighWater, nil),
		connectLatency:  reg.Histogram(metricConnectLatency, telemetry.LogBuckets(100e-6, 2, 17), nil),
		pathLen:         reg.Histogram(metricPathLength, telemetry.LinearBuckets(2, 1, 15), nil),
		nackHops:        reg.Histogram(metricNackHops, telemetry.LinearBuckets(1, 1, 12), nil),
	}
}

// noteInboxDepth raises the inbox high-water mark to depth if it exceeds
// the current maximum.
func (m *Metrics) noteInboxDepth(depth int64) { m.inboxHighWater.SetMax(depth) }

// Snapshot returns the current counter values and histogram states.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Sent:            m.sent.Value(),
		Dropped:         m.dropped.Value(),
		Expired:         m.expired.Value(),
		Nacks:           m.nacks.Value(),
		ContractRejects: m.contractRejects.Value(),
		Timeouts:        m.timeouts.Value(),
		Reformations:    m.reformations.Value(),
		Connects:        m.connects.Value(),
		Failures:        m.failures.Value(),
		InboxHighWater:  m.inboxHighWater.Value(),
		ConnectLatency:  m.connectLatency.Snapshot(),
		PathLength:      m.pathLen.Snapshot(),
		NackHops:        m.nackHops.Snapshot(),
	}
}

// Reset zeroes every transport instrument (counters, high-water mark and
// histograms) so sequential batches on one Network can report per-window
// numbers. Only this Metrics' own instruments are touched — other
// components sharing the registry keep their series.
func (m *Metrics) Reset() {
	m.sent.Reset()
	m.dropped.Reset()
	m.expired.Reset()
	m.nacks.Reset()
	m.contractRejects.Reset()
	m.timeouts.Reset()
	m.reformations.Reset()
	m.connects.Reset()
	m.failures.Reset()
	m.inboxHighWater.Reset()
	m.connectLatency.Reset()
	m.pathLen.Reset()
	m.nackHops.Reset()
}

// MetricsSnapshot is a point-in-time copy of the runtime counters — the
// compatibility view kept stable while the instruments themselves live
// in a telemetry.Registry.
type MetricsSnapshot struct {
	// Sent counts messages handed to links whose target was alive at
	// send time; Dropped counts deliveries that failed because the
	// target was unknown or departed (including a departing peer's
	// drained inbox); Expired counts messages that died in the network
	// because their attempt deadline had already passed.
	Sent, Dropped, Expired int64
	// Nacks counts NACK events generated (mid-path departures and
	// contract rejections); ContractRejects counts the subset caused by
	// a forwarder refusing an unverifiable SignedContract.
	Nacks, ContractRejects int64
	// Timeouts counts connection attempts that hit their per-attempt
	// deadline; Reformations counts relaunched attempts (Prop. 1's
	// event); Connects/Failures count connections that terminally
	// succeeded/failed.
	Timeouts, Reformations, Connects, Failures int64
	// InboxHighWater is the deepest any peer inbox has been.
	InboxHighWater int64
	// ConnectLatency, PathLength and NackHops are the distributional
	// views: end-to-end connect latency in seconds, realised path length
	// in nodes, and how far paths had progressed when NACKed.
	ConnectLatency telemetry.HistogramSnapshot
	PathLength     telemetry.HistogramSnapshot
	NackHops       telemetry.HistogramSnapshot
}

// Delta returns this snapshot minus prev — the per-window view for
// sequential batches on one long-lived Network. InboxHighWater keeps the
// current value (a high-water mark has no meaningful difference).
func (s MetricsSnapshot) Delta(prev MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		Sent:            s.Sent - prev.Sent,
		Dropped:         s.Dropped - prev.Dropped,
		Expired:         s.Expired - prev.Expired,
		Nacks:           s.Nacks - prev.Nacks,
		ContractRejects: s.ContractRejects - prev.ContractRejects,
		Timeouts:        s.Timeouts - prev.Timeouts,
		Reformations:    s.Reformations - prev.Reformations,
		Connects:        s.Connects - prev.Connects,
		Failures:        s.Failures - prev.Failures,
		InboxHighWater:  s.InboxHighWater,
		ConnectLatency:  s.ConnectLatency.Delta(prev.ConnectLatency),
		PathLength:      s.PathLength.Delta(prev.PathLength),
		NackHops:        s.NackHops.Delta(prev.NackHops),
	}
}

// String renders the snapshot as a one-line summary.
func (s MetricsSnapshot) String() string {
	return fmt.Sprintf(
		"sent=%d dropped=%d expired=%d nacks=%d contract-rejects=%d timeouts=%d reformations=%d connects=%d failures=%d inbox-hwm=%d",
		s.Sent, s.Dropped, s.Expired, s.Nacks, s.ContractRejects, s.Timeouts, s.Reformations, s.Connects, s.Failures, s.InboxHighWater)
}
