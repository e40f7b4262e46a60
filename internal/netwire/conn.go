package netwire

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2panon/internal/overlay"
	"p2panon/internal/wire"
)

// outFrame is one queued outbound frame, encoded at send into a buffer of
// its link's (link.buffer), plus the absolute attempt deadline it travels
// under, in nanoseconds on the cluster clock as transport.Message carries
// it (zero = none). The deadline is stamped into the frame's
// DeadlineMicros at write time, so each hop forwards exactly the budget
// that remains.
type outFrame struct {
	b   []byte
	abs int64
}

// kind is the frame's kind, read off its prologue.
func (of outFrame) kind() Kind { return Kind(of.b[wire.PrefixSize+1]) }

// link is a node's end of its one connection with a peer: a bounded
// outbound queue of encoded frames drained by one writer goroutine,
// started at the link's first frame, which writes them to the connection
// either end dialed and hands their buffers back for the next frames.
// When the link has none, the next frame dials, and the peer adopts what
// it accepts (Node.adopt); both ends read the connection, so a reply
// leaves on the socket its request came in on.
// Delivery failures go back to the owner so the protocol can NACK and
// route around the corpse.
type link struct {
	owner *Node
	peer  peerRef

	outbox  chan outFrame
	free    chan []byte // buffers of written frames, for the next sends
	closed  chan struct{}
	writing atomic.Bool // the writer has started

	// mu guards conn and own, and is held across each dial and write, so a
	// connection is swapped or released only between frames. conn is nil
	// when the link has none; own marks one this node dialed.
	mu   sync.Mutex
	conn net.Conn
	own  bool
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
		outbox: make(chan outFrame, queueCap),
		free:   make(chan []byte, freeBufs),
		closed: make(chan struct{}),
	}
	return l
}

// A link keeps up to freeBufs buffers of written frames, each starting
// at frameBuf bytes: room for a FORWARD with trace context over an 18-node
// path. A connection's frames mostly cross one at a time, so a burst past
// freeBufs frames in flight only costs the extra buffers' allocation.
const (
	freeBufs = 4
	frameBuf = 256
)

// buffer returns an empty buffer to encode a frame into: one a written
// frame left, or a fresh one while the sends in flight hold them all.
func (l *link) buffer() []byte {
	select {
	case b := <-l.free:
		return b
	default:
		return make([]byte, 0, frameBuf)
	}
}

// recycle hands the buffer of a frame that is written, or will not be, to
// the link's next sends. An outsized frame's buffer is not kept.
func (l *link) recycle(b []byte) {
	if cap(b) > connBuf {
		return
	}
	select {
	case l.free <- b[:0]:
	default:
	}
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
		l.recycle(of.b)
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
		left := (of.abs - c.Clock().Now().UnixNano()) / int64(time.Microsecond)
		if left <= 0 {
			c.metrics.deadlineExpired.Inc()
			return true
		}
		binary.BigEndian.PutUint64(of.b[deadlineAt:], uint64(left))
	}
	l.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	if _, err := l.conn.Write(of.b); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.metrics.deadlineWrite.Inc()
		}
		c.logf("node %d: write %s to peer %d: %v", l.owner.ID, of.kind(), l.peer.id, err)
		l.conn.Close() // its reader ends it
		l.conn = nil
		return false
	}
	c.metrics.noteSent(of.kind(), len(of.b))
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
	hello := &Frame{Kind: KindHello, Node: l.owner.ID}
	in := envelope.NewStream(conn, connBuf)
	var ack Frame
	n, err := WriteFrame(conn, hello)
	if err == nil {
		c.metrics.noteSent(KindHello, n)
		n, err = readFrame(in, &ack, nil)
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
