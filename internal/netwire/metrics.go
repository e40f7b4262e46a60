package netwire

import "p2panon/internal/telemetry"

// Netwire metric names as exposed on the Prometheus endpoint. The frame
// and byte counters are split by direction, dials by result. The
// protocol families (netwire_nacks_total, netwire_settlements_total, …)
// are bound by the shared transport.Driver from the "netwire" prefix, so
// the two backends read alike on one dashboard.
const (
	metricDialsTotal    = "netwire_dials_total"  // label result: ok|fail|rejected
	metricFramesTotal   = "netwire_frames_total" // labels dir: sent|recv, kind
	metricBytesTotal    = "netwire_bytes_total"  // label dir: sent|recv
	metricQueueDepth    = "netwire_queue_depth_high_water"
	metricConnsOpen     = "netwire_conns_open"
	metricDeadlineHits  = "netwire_deadline_hits_total" // label op: read|write|expired
	metricMessagesTotal = "netwire_messages_total"      // label kind: sent|dropped
)

// metrics is the cluster's own instrument set: the socket-layer counters
// (dials, frames, bytes, queue depth, deadline hits) and the link-model
// message counts Cluster.Metrics folds into the transport-compatible
// snapshot.
type metrics struct {
	dialsOK, dialsFail *telemetry.Counter
	dialsRejected      *telemetry.Counter // inbound: first frame was not a well-formed Hello
	bytesSent          *telemetry.Counter
	bytesRecv          *telemetry.Counter
	queueDepth         *telemetry.Gauge
	connsOpen          *telemetry.Gauge
	deadlineRead       *telemetry.Counter
	deadlineWrite      *telemetry.Counter
	deadlineExpired    *telemetry.Counter

	sent    *telemetry.Counter
	dropped *telemetry.Counter

	framesSent map[Kind]*telemetry.Counter
	framesRecv map[Kind]*telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	reg.Help(metricDialsTotal, "TCP dials by result: outbound ok|fail, inbound rejected at the handshake")
	reg.Help(metricFramesTotal, "wire frames by direction and kind")
	reg.Help(metricBytesTotal, "wire bytes by direction (frame headers included)")
	reg.Help(metricQueueDepth, "deepest any per-peer outbound queue has been")
	reg.Help(metricConnsOpen, "open TCP connections, each counted once per end that holds it, dialed or accepted")
	reg.Help(metricDeadlineHits, "socket deadline hits (op=read|write) and frames dropped past their attempt deadline (op=expired)")
	reg.Help(metricMessagesTotal, "protocol messages handed to links (kind=sent) and lost to unreachable peers (kind=dropped)")
	m := &metrics{
		dialsOK:         reg.Counter(metricDialsTotal, telemetry.Labels{"result": "ok"}),
		dialsFail:       reg.Counter(metricDialsTotal, telemetry.Labels{"result": "fail"}),
		dialsRejected:   reg.Counter(metricDialsTotal, telemetry.Labels{"result": "rejected"}),
		bytesSent:       reg.Counter(metricBytesTotal, telemetry.Labels{"dir": "sent"}),
		bytesRecv:       reg.Counter(metricBytesTotal, telemetry.Labels{"dir": "recv"}),
		queueDepth:      reg.Gauge(metricQueueDepth, nil),
		connsOpen:       reg.Gauge(metricConnsOpen, nil),
		deadlineRead:    reg.Counter(metricDeadlineHits, telemetry.Labels{"op": "read"}),
		deadlineWrite:   reg.Counter(metricDeadlineHits, telemetry.Labels{"op": "write"}),
		deadlineExpired: reg.Counter(metricDeadlineHits, telemetry.Labels{"op": "expired"}),
		sent:            reg.Counter(metricMessagesTotal, telemetry.Labels{"kind": "sent"}),
		dropped:         reg.Counter(metricMessagesTotal, telemetry.Labels{"kind": "dropped"}),
		framesSent:      make(map[Kind]*telemetry.Counter),
		framesRecv:      make(map[Kind]*telemetry.Counter),
	}
	for k := KindHello; k < kindEnd; k++ {
		m.framesSent[k] = reg.Counter(metricFramesTotal, telemetry.Labels{"dir": "sent", "kind": k.String()})
		m.framesRecv[k] = reg.Counter(metricFramesTotal, telemetry.Labels{"dir": "recv", "kind": k.String()})
	}
	return m
}

// noteSent/noteRecv account one frame crossing the wire.
func (m *metrics) noteSent(k Kind, bytes int) {
	if c, ok := m.framesSent[k]; ok {
		c.Inc()
	}
	m.bytesSent.Add(int64(bytes))
}

func (m *metrics) noteRecv(k Kind, bytes int) {
	if c, ok := m.framesRecv[k]; ok {
		c.Inc()
	}
	m.bytesRecv.Add(int64(bytes))
}
