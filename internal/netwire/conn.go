package netwire

import (
	"net"
	"time"

	"p2panon/internal/overlay"
)

// outFrame is one queued outbound frame plus the absolute attempt
// deadline it travels under (zero = none). The deadline is re-stamped
// into DeadlineMicros at write time, so each hop forwards exactly the
// budget that remains.
type outFrame struct {
	f   *Frame
	abs time.Time
}

// link is the per-peer connection manager: a bounded outbound queue
// drained by one writer goroutine that dials on demand, keeps the
// connection pooled for reuse, applies write deadlines, and reports
// delivery failures back to its owner so the protocol can NACK and route
// around the corpse.
type link struct {
	owner *Node
	peer  peerRef

	outbox chan outFrame
	closed chan struct{}

	// conn is owned by the writer goroutine exclusively (no lock); it is
	// nil between failures so the next frame re-dials. So is wbuf, the
	// buffer every frame of the link is encoded into and written from.
	conn net.Conn
	wbuf []byte
}

// peerRef names the link's remote end.
type peerRef struct {
	id   overlay.NodeID
	addr func() (string, bool) // live directory lookup
}

func (nd *Node) newLink(to overlay.NodeID, addr func() (string, bool)) *link {
	l := &link{
		owner:  nd,
		peer:   peerRef{id: to, addr: addr},
		outbox: make(chan outFrame, nd.c.cfg.QueueCap),
		closed: make(chan struct{}),
	}
	nd.c.wg.Add(1)
	go l.writeLoop()
	return l
}

// enqueue hands a frame to the link with backpressure: a full queue
// blocks the caller up to EnqueueTimeout (real time — this guards the
// socket layer, not the protocol schedule) before refusing. A refusal is
// the synchronous drop signal, like transport's send to a departed peer.
func (l *link) enqueue(of outFrame) bool {
	select {
	case l.outbox <- of:
		l.owner.c.metrics.queueDepth.SetMax(int64(len(l.outbox)))
		return true
	case <-l.closed:
		return false
	case <-l.owner.killed:
		return false
	default:
	}
	t := time.NewTimer(l.owner.c.cfg.EnqueueTimeout)
	defer t.Stop()
	select {
	case l.outbox <- of:
		l.owner.c.metrics.queueDepth.SetMax(int64(len(l.outbox)))
		return true
	case <-l.closed:
		return false
	case <-l.owner.killed:
		return false
	case <-t.C:
		return false
	}
}

// close shuts the link down; queued frames are failed by the writer.
func (l *link) close() {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
}

// writeLoop drains the outbox: dial on demand (with handshake), stamp the
// remaining deadline budget, write under a write deadline, and on any
// failure drop the pooled connection and report the frame undeliverable.
func (l *link) writeLoop() {
	defer l.owner.c.wg.Done()
	defer func() {
		if l.conn != nil {
			l.conn.Close()
			l.owner.c.metrics.connsOpen.Add(-1)
			l.conn = nil
		}
	}()
	for {
		var of outFrame
		select {
		case of = <-l.outbox:
		case <-l.closed:
			l.failQueued()
			return
		case <-l.owner.killed:
			l.failQueued()
			return
		}
		l.deliver(of)
	}
}

// failQueued drains and fails whatever is still queued when the link
// closes, so in-flight connections fail fast instead of timing out —
// netwire's analogue of a departing transport peer draining its inbox.
func (l *link) failQueued() {
	for {
		select {
		case of := <-l.outbox:
			l.owner.onDeliveryFail(l.peer.id, of)
		default:
			return
		}
	}
}

// deliver writes one frame, dialing first if the pooled connection is
// gone. Frames whose attempt deadline has already passed die here,
// silently — the initiator's attempt timer is due anyway.
func (l *link) deliver(of outFrame) {
	c := l.owner.c
	if !of.abs.IsZero() && c.Clock().Now().After(of.abs) {
		c.metrics.deadlineExpired.Inc()
		return
	}
	if l.conn == nil {
		conn, err := l.dial()
		if err != nil {
			c.metrics.dialsFail.Inc()
			c.logf("node %d: dial peer %d: %v", l.owner.ID, l.peer.id, err)
			l.owner.onDeliveryFail(l.peer.id, of)
			return
		}
		c.metrics.dialsOK.Inc()
		c.metrics.connsOpen.Add(1)
		l.conn = conn
	}
	if !of.abs.IsZero() {
		of.f.DeadlineMicros = c.Clock().Until(of.abs).Microseconds()
		if of.f.DeadlineMicros <= 0 {
			c.metrics.deadlineExpired.Inc()
			return
		}
	}
	l.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	buf, err := of.f.AppendTo(l.wbuf[:0])
	if err == nil {
		if cap(buf) <= connBuf {
			l.wbuf = buf // an outsized frame's buffer is not kept
		}
		_, err = l.conn.Write(buf)
	}
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.metrics.deadlineWrite.Inc()
		}
		c.logf("node %d: write %s to peer %d: %v", l.owner.ID, of.f.Kind, l.peer.id, err)
		l.conn.Close()
		l.conn = nil
		c.metrics.connsOpen.Add(-1)
		l.owner.onDeliveryFail(l.peer.id, of)
		return
	}
	c.metrics.noteSent(of.f.Kind, len(buf))
}

// dial opens and handshakes a fresh connection to the peer: Hello out,
// HelloAck (right version, right node) back, both under deadlines.
func (l *link) dial() (net.Conn, error) {
	c := l.owner.c
	addr, ok := l.peer.addr()
	if !ok {
		return nil, errUnknownPeer
	}
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	hello := &Frame{Kind: KindHello, Node: l.owner.ID, Nonce: c.nonce.Add(1)}
	if n, err := WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	} else {
		c.metrics.noteSent(KindHello, n)
	}
	ack, n, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.metrics.noteRecv(KindHelloAck, n)
	if ack.Kind != KindHelloAck || ack.Node != l.peer.id {
		conn.Close()
		return nil, errBadHandshake
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}
