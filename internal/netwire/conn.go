package netwire

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2panon/internal/overlay"
	"p2panon/internal/wire"
)

// outFrame is one queued outbound frame plus the absolute attempt
// deadline it travels under, in nanoseconds on the cluster clock as
// transport.Message carries it (zero = none). The deadline is re-stamped
// into DeadlineMicros at write time, so each hop forwards exactly the
// budget that remains.
type outFrame struct {
	f   *Frame
	abs int64
}

// link is a node's end of its one connection with a peer: a bounded
// outbound queue drained by one writer goroutine, started at the link's
// first frame, which writes to the connection either end dialed. When
// the link has none, the next frame dials, and the peer adopts what it
// accepts (Node.adopt); both ends read the connection, so a reply leaves
// on the socket its request came in on.
// Delivery failures go back to the owner so the protocol can NACK and
// route around the corpse.
type link struct {
	owner *Node
	peer  peerRef

	outbox  chan outFrame
	closed  chan struct{}
	writing atomic.Bool // the writer has started

	// mu guards conn and own, and is held across each dial and write, so a
	// connection is swapped or released only between frames. conn is nil
	// when the link has none; own marks one this node dialed.
	mu   sync.Mutex
	conn net.Conn
	own  bool
	wbuf []byte // the writer's encode buffer
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
	return l
}

// startWriter starts the link's writer for its first frame, so a link
// that only ever receives holds no goroutine. The wait group's add is
// ordered against kill, and so against Close, under the node's lock the
// way track orders its own: once the node is killed nothing starts and
// the frame is refused.
func (l *link) startWriter() bool {
	nd := l.owner
	nd.mu.Lock()
	defer nd.mu.Unlock()
	select {
	case <-nd.killed:
		return false
	default:
	}
	if !l.writing.Load() {
		l.writing.Store(true)
		nd.c.wg.Add(1)
		go l.writeLoop()
	}
	return true
}

// enqueue hands a frame to the link with backpressure: a full queue
// blocks the caller up to EnqueueTimeout (real time — this guards the
// socket layer, not the protocol schedule) before refusing. A refusal is
// the synchronous drop signal, like transport's send to a departed peer.
func (l *link) enqueue(of outFrame) bool {
	if !l.writing.Load() && !l.startWriter() {
		return false
	}
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

// release clears the link's connection if it is conn, so the next frame
// dials instead of writing into a connection that is ending. A nil link
// (a connection read but never written) has nothing to clear.
func (l *link) release(conn net.Conn) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
}

// retire half-closes a connection this end will write no more: the peer
// reads what was written, then EOF, and its reader ends the connection.
func retire(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// writeLoop drains the outbox until the link closes or its node dies;
// the connection is closed by its reader (Node.kill closes them all).
func (l *link) writeLoop() {
	defer l.owner.c.wg.Done()
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
		l.mu.Lock()
		ok := l.deliver(of)
		l.mu.Unlock()
		if !ok {
			l.owner.onDeliveryFail(l.peer.id, of)
		}
	}
}

// failQueued drains and fails whatever is still queued when the link
// closes, so in-flight connections fail fast instead of timing out —
// netwire's analogue of transport.Network failing the deliveries still
// queued for a departed peer.
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

// deliver writes one frame under l.mu, dialing first if the link has no
// connection; false means the frame is undeliverable. Frames whose
// attempt deadline has already passed die here, silently — the
// initiator's attempt timer is due anyway.
func (l *link) deliver(of outFrame) bool {
	c := l.owner.c
	if of.abs != 0 && c.Clock().Now().UnixNano() > of.abs {
		c.metrics.deadlineExpired.Inc()
		return true
	}
	if l.conn == nil {
		conn, in, err := l.dial()
		if err == nil && !l.owner.track(conn) {
			err = errNodeKilled
		}
		if err != nil {
			c.metrics.dialsFail.Inc()
			c.logf("node %d: dial peer %d: %v", l.owner.ID, l.peer.id, err)
			return false
		}
		c.metrics.dialsOK.Inc()
		l.conn, l.own = conn, true
		go l.owner.readLoop(conn, in, l)
	}
	if of.abs != 0 {
		of.f.DeadlineMicros = (of.abs - c.Clock().Now().UnixNano()) / int64(time.Microsecond)
		if of.f.DeadlineMicros <= 0 {
			c.metrics.deadlineExpired.Inc()
			return true
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
		l.conn.Close() // its reader ends it
		l.conn = nil
		return false
	}
	c.metrics.noteSent(of.f.Kind, len(buf))
	return true
}

// dial opens and handshakes a fresh connection to the peer: Hello out,
// HelloAck (right version, right node) back, both under deadlines. The
// ack is read through the stream the connection's reader goes on with,
// so a frame the peer sends right behind it is not lost.
func (l *link) dial() (net.Conn, *wire.Stream, error) {
	c := l.owner.c
	addr, ok := l.peer.addr()
	if !ok {
		return nil, nil, errUnknownPeer
	}
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	hello := &Frame{Kind: KindHello, Node: l.owner.ID, Nonce: c.nonce.Add(1)}
	in := envelope.NewStream(conn, connBuf)
	var ack Frame
	n, err := WriteFrame(conn, hello)
	if err == nil {
		c.metrics.noteSent(KindHello, n)
		n, err = readFrame(in, &ack)
	}
	if err == nil && (ack.Kind != KindHelloAck || ack.Node != l.peer.id) {
		err = errBadHandshake
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	c.metrics.noteRecv(KindHelloAck, n)
	conn.SetDeadline(time.Time{})
	return conn, in, nil
}
